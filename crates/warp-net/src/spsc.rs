//! Preallocated SPSC ring-buffer lanes for the threaded executive.
//!
//! Every ordered LP pair gets a dedicated single-producer/single-consumer
//! ring: a send is a slot write and two atomic stores — no allocation,
//! no lock, no queue shared between senders — behind a mesh surface of
//! `id` / `send` / `try_recv` / `recv_timeout`. See `docs/hot-path.md`.
//!
//! Semantics:
//!
//! * FIFO per ordered sender→receiver pair (a ring is a FIFO; when it
//!   fills, messages spill into an unbounded overflow queue that drains
//!   *after* the ring and captures new sends until empty, so order
//!   never inverts).
//! * Sends never block and never fail: a full ring spills, a
//!   dropped-peer send parks harmlessly in the shared lane (the
//!   allocation lives as long as any endpoint).
//! * `recv_timeout` parks the thread on a per-endpoint eventcount over
//!   an eventfd (senders only write to it when the receiver has
//!   advertised that it is sleeping), so the idle path stays cheap and
//!   the hot path lock-free; the park is a `ppoll`, so a receiver can
//!   sleep on other descriptors in the same call
//!   ([`LaneEndpoint::recv_timeout_watching`]).

use crate::poll::{self, PollFd};
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::mem::MaybeUninit;
use std::os::fd::AsRawFd;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ring capacity per lane (messages). Lanes preallocate this many slots
/// up front; sustained bursts beyond it degrade gracefully into the
/// overflow queue instead of blocking or dropping.
pub const LANE_CAP: usize = 512;

/// Pad to a cache line so the producer and consumer cursors of a lane
/// do not false-share.
#[repr(align(64))]
struct Pad<T>(T);

/// One single-producer/single-consumer lane: a fixed ring plus an
/// unbounded spill queue for bursts beyond [`LANE_CAP`].
struct Lane<T> {
    /// `cap` slots, `cap` a power of two.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Monotonic, wraps via `mask`.
    head: Pad<AtomicUsize>,
    /// Next slot the producer will write.
    tail: Pad<AtomicUsize>,
    /// Spill queue, used only while the ring is full; `spill_len`
    /// mirrors its length so the fast paths can skip the lock.
    spill: Mutex<VecDeque<T>>,
    spill_len: AtomicUsize,
}

// SAFETY: the ring hands each value from exactly one producer thread to
// exactly one consumer thread; slots are published/consumed under
// release/acquire cursor updates, so `&Lane` can cross threads whenever
// the payload itself can.
unsafe impl<T: Send> Sync for Lane<T> {}
unsafe impl<T: Send> Send for Lane<T> {}

impl<T> Lane<T> {
    fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two());
        Lane {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            head: Pad(AtomicUsize::new(0)),
            tail: Pad(AtomicUsize::new(0)),
            spill: Mutex::new(VecDeque::new()),
            spill_len: AtomicUsize::new(0),
        }
    }

    /// Producer side. Must only be called by the lane's unique producer.
    fn push(&self, v: T) {
        // While the spill queue is non-empty every new message must go
        // behind it, or FIFO order would invert as the consumer drains
        // ring-first. Only the producer adds to the spill, so reading 0
        // here is conclusive.
        if self.spill_len.load(Ordering::Acquire) != 0 {
            return self.push_spill(v);
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            return self.push_spill(v); // ring full
        }
        // SAFETY: `head <= tail - cap` is excluded above, so the slot at
        // `tail` is not concurrently read; only this producer writes it.
        unsafe { (*self.slots[tail & self.mask].get()).write(v) };
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
    }

    #[cold]
    fn push_spill(&self, v: T) {
        let mut q = self.spill.lock().unwrap();
        q.push_back(v);
        self.spill_len.store(q.len(), Ordering::Release);
    }

    /// Consumer side. Must only be called by the lane's unique consumer.
    fn pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head != tail {
            // SAFETY: the producer published the slot with the release
            // store of `tail`; only this consumer reads/frees it.
            let v = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
            self.head.0.store(head.wrapping_add(1), Ordering::Release);
            return Some(v);
        }
        if self.spill_len.load(Ordering::Acquire) != 0 {
            let mut q = self.spill.lock().unwrap();
            let v = q.pop_front();
            self.spill_len.store(q.len(), Ordering::Release);
            return v;
        }
        None
    }
}

impl<T> Drop for Lane<T> {
    fn drop(&mut self) {
        let mut i = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while i != tail {
            // SAFETY: `[head, tail)` slots hold initialized, unconsumed
            // values; we have `&mut self`, so no concurrent access.
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Per-endpoint sleep/wake primitive: an eventcount reduced to one
/// boolean, over a file descriptor. Senders check `parked` (a single
/// atomic load on the hot path) and add to an eventfd
/// ([`poll::event_fd`]) only when the receiver advertised that it is
/// about to sleep; the receiver sleeps in one `ppoll` ([`crate::poll`])
/// on it — together with whatever other descriptors it watches (a worker
/// LP's peer links).
struct Doorbell {
    parked: AtomicBool,
    /// The counter was added to since the receiver last drained it: later
    /// rings need not add again.
    rung: AtomicBool,
    bell: File,
}

impl Doorbell {
    /// Panics if the process is out of file descriptors.
    fn new() -> Self {
        Doorbell {
            parked: AtomicBool::new(false),
            rung: AtomicBool::new(false),
            bell: poll::event_fd().expect("a doorbell eventfd"),
        }
    }

    /// Sender side: wake the receiver if (and only if) it is parked.
    fn ring(&self) {
        // Pairs with the SeqCst fence in `wait`: either we observe
        // `parked` and write, or the receiver's re-check observes our
        // message. A missed wake is additionally bounded by the
        // receiver's timeout, never lost forever.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && !self.rung.swap(true, Ordering::AcqRel) {
            // Fails only on a counter about to overflow, which is readable.
            let _ = (&self.bell).write(&1u64.to_ne_bytes());
        }
    }

    /// Receiver side: sleep until rung, until one of `fds` — the bell
    /// last, see [`Doorbell::watch`] — is readable, or until `timeout`.
    /// `recheck` is polled once after advertising the park, closing the
    /// race with a sender that rang just before.
    fn wait(&self, timeout: Duration, recheck: impl Fn() -> bool, fds: &mut [PollFd]) {
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let slept = !recheck() && poll::wait(fds, timeout);
        self.parked.store(false, Ordering::Relaxed);
        // A count left behind (a ring that raced the re-check, or the
        // last drain) only wakes the next park early, which drains it.
        if slept && fds.last().is_some_and(PollFd::ready) {
            let _ = (&self.bell).read(&mut [0; 8]);
            // After the drain. Release pairs with the `AcqRel` swap in
            // `ring`: a sender that finds `rung` clear adds to the
            // counter after this drain, so the next park sees it.
            self.rung.store(false, Ordering::Release);
        }
    }

    /// The descriptor to watch for this bell.
    fn watch(&self) -> PollFd {
        PollFd::readable(self.bell.as_raw_fd())
    }
}

/// One LP's view of the lane mesh: the producer ends of its outgoing
/// lanes and the consumer ends of its incoming ones.
pub struct LaneEndpoint<T> {
    id: usize,
    /// `tx[to]`: this endpoint is the unique producer.
    tx: Vec<Arc<Lane<T>>>,
    /// `rx[from]`: this endpoint is the unique consumer.
    rx: Vec<Arc<Lane<T>>>,
    /// `bells[peer]`: peer's doorbell; `bells[id]` is our own.
    bells: Vec<Arc<Doorbell>>,
    /// Round-robin scan start, for fairness across senders.
    cursor: Cell<usize>,
}

/// Build a full mesh of SPSC lanes between `n` endpoints.
pub fn lane_mesh<T: Send>(n: usize) -> Vec<LaneEndpoint<T>> {
    assert!(n > 0, "mesh needs at least one endpoint");
    // lanes[from][to]
    let lanes: Vec<Vec<Arc<Lane<T>>>> = (0..n)
        .map(|_| (0..n).map(|_| Arc::new(Lane::new(LANE_CAP))).collect())
        .collect();
    let bells: Vec<Arc<Doorbell>> = (0..n).map(|_| Arc::new(Doorbell::new())).collect();
    (0..n)
        .map(|id| LaneEndpoint {
            id,
            tx: lanes[id].clone(),
            rx: (0..n).map(|from| lanes[from][id].clone()).collect(),
            bells: bells.clone(),
            cursor: Cell::new(0),
        })
        .collect()
}

impl<T> LaneEndpoint<T> {
    /// This endpoint's index in the mesh.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of endpoints in the mesh.
    pub fn n_peers(&self) -> usize {
        self.tx.len()
    }

    /// Send a packet to endpoint `to` (self-sends allowed). Never
    /// blocks; a peer that already shut down just never drains its lane.
    pub fn send(&self, to: usize, packet: T) {
        self.tx[to].push(packet);
        self.bells[to].ring();
    }

    /// Non-blocking receive: scan incoming lanes round-robin.
    pub fn try_recv(&self) -> Option<T> {
        let n = self.rx.len();
        let start = self.cursor.get();
        for i in 0..n {
            let lane = (start + i) % n;
            if let Some(p) = self.rx[lane].pop() {
                // Resume after this lane next time so one chatty peer
                // cannot starve the others.
                self.cursor.set((lane + 1) % n);
                return Some(p);
            }
        }
        None
    }

    /// Blocking receive with a timeout; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.park(timeout, &mut [self.bells[self.id].watch()])
    }

    /// [`recv_timeout`](Self::recv_timeout) that also wakes when one of
    /// `fds` is readable — `None` then too, unless a packet came with it.
    /// The park is one `ppoll` over `fds` and this endpoint's doorbell;
    /// `fds` is handed back as it came (the doorbell is pushed and popped,
    /// so a reused vector allocates once).
    pub fn recv_timeout_watching(&self, timeout: Duration, fds: &mut Vec<PollFd>) -> Option<T> {
        fds.push(self.bells[self.id].watch());
        let p = self.park(timeout, fds);
        fds.pop();
        p
    }

    /// Receive, or park on `fds` — this endpoint's doorbell last.
    fn park(&self, timeout: Duration, fds: &mut [PollFd]) -> Option<T> {
        if let Some(p) = self.try_recv() {
            return Some(p);
        }
        let recheck = || {
            self.rx.iter().any(|l| {
                let head = l.head.0.load(Ordering::Relaxed);
                l.tail.0.load(Ordering::Acquire) != head || l.spill_len.load(Ordering::Acquire) != 0
            })
        };
        self.bells[self.id].wait(timeout, recheck, fds);
        self.try_recv()
    }

    /// Drain everything currently queued (test helper).
    pub fn drain(&self) -> Vec<T> {
        let mut v = Vec::new();
        while let Some(p) = self.try_recv() {
            v.push(p);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn routes_point_to_point() {
        let eps = lane_mesh::<u32>(3);
        eps[0].send(2, 42);
        eps[1].send(2, 43);
        eps[2].send(0, 1);
        let mut got = eps[2].drain();
        got.sort_unstable();
        assert_eq!(got, vec![42, 43]);
        assert_eq!(eps[0].try_recv(), Some(1));
        assert_eq!(eps[1].try_recv(), None);
    }

    #[test]
    fn fifo_per_pair_through_spill() {
        // 10× the ring capacity forces the spill path; order must hold.
        let eps = lane_mesh::<u32>(2);
        let n = (LANE_CAP * 10) as u32;
        for i in 0..n {
            eps[0].send(1, i);
        }
        let got = eps[1].drain();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_spill_keeps_order() {
        let eps = lane_mesh::<u32>(2);
        let mut want = Vec::new();
        let mut got = Vec::new();
        let mut next = 0u32;
        // Alternate overfilling and partial drains so the spill queue
        // activates and empties repeatedly.
        for round in 0..6 {
            let burst = LANE_CAP as u32 + 37 * round;
            for _ in 0..burst {
                eps[0].send(1, next);
                want.push(next);
                next += 1;
            }
            for _ in 0..(burst / 2) {
                got.push(eps[1].try_recv().unwrap());
            }
        }
        got.extend(eps[1].drain());
        assert_eq!(got, want);
    }

    #[test]
    fn self_send_works() {
        let eps = lane_mesh::<&'static str>(1);
        eps[0].send(0, "loop");
        assert_eq!(eps[0].try_recv(), Some("loop"));
    }

    #[test]
    fn cross_thread_delivery_with_parking() {
        let mut eps = lane_mesh::<u64>(2);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            let mut sum = 0;
            let mut n = 0;
            while n < 10_000 {
                if let Some(v) = ep1.recv_timeout(Duration::from_secs(5)) {
                    sum += v;
                    n += 1;
                }
            }
            sum
        });
        for i in 1..=10_000u64 {
            ep0.send(1, i);
            if i % 1000 == 0 {
                std::thread::sleep(Duration::from_millis(1)); // let it park
            }
        }
        assert_eq!(h.join().unwrap(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn recv_timeout_expires() {
        let eps = lane_mesh::<u8>(2);
        let t0 = Instant::now();
        assert_eq!(eps[0].recv_timeout(Duration::from_millis(10)), None);
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn send_to_dropped_peer_is_a_noop() {
        let mut eps = lane_mesh::<u8>(2);
        drop(eps.pop().unwrap()); // endpoint 1 has shut down
        let ep0 = eps.pop().unwrap();
        ep0.send(1, 42); // must not panic
        ep0.send(1, 43);
        ep0.send(0, 7);
        assert_eq!(ep0.try_recv(), Some(7));
    }

    #[test]
    fn drop_releases_undelivered_payloads() {
        // Heap payloads left in rings and spill queues must drop cleanly.
        let eps = lane_mesh::<Vec<u8>>(2);
        for i in 0..(LANE_CAP * 2) {
            eps[0].send(1, vec![i as u8; 64]);
        }
        drop(eps);
    }
}
