//! TCP process mesh for the distributed executive.
//!
//! A [`TcpMesh`] is the multi-process analogue of the threaded
//! executive's [`lane_mesh`](crate::spsc::lane_mesh): a full mesh of
//! loopback-or-LAN TCP connections between `n_procs` processes,
//! carrying [`Frame`]s instead of in-memory packets, with the same
//! `send` / `try_recv` / `recv_timeout` surface. It is the only
//! inter-process engine (`docs/data-plane.md` records the measurement
//! that retired the single-event-loop alternative).
//!
//! Establishment is deterministic: process `i` *dials* every peer with a
//! lower id (with retry + exponential backoff, so start-up order does not
//! matter) and *accepts* from every peer with a higher id. Both sides of
//! a fresh connection immediately exchange [`Frame::Hello`]; a protocol
//! version or topology mismatch aborts establishment with an error
//! rather than letting two incompatible builds exchange garbage. The
//! `Hello` also carries the mesh *session epoch*: recovery tears the mesh
//! down and re-establishes it under an incremented session, and an
//! accepted connection claiming a different session (a zombie dial from
//! the dead session) is simply dropped — the listener keeps accepting.
//!
//! Reliability is TCP's: a connection delivers its bytes once and in
//! order, or dies, and a dead link ends the session through recovery (a
//! lost frame is never retransmitted — recovery restarts from a
//! checkpoint instead). Each link's sending side stamps outgoing
//! [`Frame::Data`] frames with a per-link sequence number, and the
//! receiving side checks it: a data frame that is not the next one is
//! bytes no healthy peer sends, and closes the link uncleanly, as a
//! corrupt stream does. A [`FaultPlan`] in the config arms deterministic
//! fault injection on the sending side of each link (see
//! [`crate::fault`]).
//!
//! Sending: no link has a thread of its own for it. A send stages the
//! frame in the link's ordered backlog, under a lock no one holds across
//! I/O, and one thread at a time — the writer — takes the backlog to the
//! socket on its own thread. [`MeshSender::send`] waits for its turn and
//! writes its frame itself; [`MeshSender::post`], for threads that must
//! never wait, leaves its bytes to a writer already at work. So a large
//! frame is only ever written by the thread that sent it.
//! [`MeshSender::stage`] writes nothing at all: a worker's LP threads
//! stage their data frames and [`MeshSender::flush`] when their LP loop
//! says — at the end of a pass, sooner while the LP runs dry, and before
//! its next event once a cancellation is staged — so a busy pass costs
//! each peer link one write, not one per frame; any
//! send, post, flush or tick on the link writes them too. A pump only
//! reads.
//!
//! Receiving: what a link carries decides who reads it. A link whose
//! owner gave it an [`InboundHook`] — a worker's link to a peer worker,
//! whose frames go straight onto the worker's LP lanes — is *pumped*: its
//! socket is non-blocking, no thread is spawned for it, and whoever wants
//! its frames reads what it holds — until it would block or a read
//! comes back short ([`MeshSender::pump`], from the LP threads between
//! events, and [`TcpMesh::tick`]); a thread with nothing to do sleeps on
//! their sockets ([`MeshSender::watch`]). Bytes its socket refuses stay
//! in the backlog for the next send, flush or tick, so a sender never
//! blocks on a peer that is not reading. Every other
//! link — every link to the coordinator, on both sides — keeps one reader
//! thread blocked on its socket; its writes block too, but only while
//! that peer's own reader thread drains them, and a write it takes
//! nothing of for the liveness timeout closes the link. Both ways of
//! reading run the same code: every frame that passes the sequence
//! check, in order, is offered to the link's hook; what the hook hands
//! back — and everything on a hook-less link — goes to the owner's event
//! queue.
//!
//! Liveness: whoever reads a link also does its idle duties. Once a link
//! has sent nothing for half a heartbeat interval, its pending backlog
//! is flushed and a [`Frame::Heartbeat`] goes out; a link silent for
//! longer than the liveness timeout is declared half-open and reported as
//! [`MeshEvent::PeerDown`] with `clean: false` — the same event an
//! abrupt EOF (peer killed) produces. A reader thread does this after
//! each read, or its timeout; the owner of pumped links calls
//! [`TcpMesh::tick`] at least as often as it asks — whatever else its
//! threads are busy with. Graceful shutdown sends [`Frame::Bye`]
//! behind everything queued, flushes, closes the write half, and keeps
//! draining the read half until the peer's own `Bye` arrives, so no
//! in-flight frame is lost to teardown.

use crate::fault::{DataFate, FaultPlan, LinkChaos};
use crate::frame::{Frame, FrameDecoder, PROTO_VERSION};
use crate::poll::PollFd;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`TcpMesh`].
#[derive(Clone, Debug)]
pub struct TcpMeshConfig {
    /// This process's id in the mesh (0 = coordinator).
    pub proc_id: u32,
    /// Total number of processes in the mesh.
    pub n_procs: u32,
    /// Mesh session epoch; both ends of every connection must agree
    /// (0 on a fresh run, incremented on each recovery re-establishment).
    pub session: u32,
    /// Longest a live link stays silent: a link that has sent nothing
    /// for half of it heartbeats at its reader's next idle check.
    pub heartbeat_interval: Duration,
    /// Silence threshold after which a link is declared half-open.
    pub liveness_timeout: Duration,
    /// Total budget for establishing the full mesh (dial retries and
    /// accepts included).
    pub connect_timeout: Duration,
    /// First dial-retry backoff.
    pub dial_backoff_start: Duration,
    /// Backoff ceiling (doubles from `dial_backoff_start` up to this).
    pub dial_backoff_max: Duration,
    /// Deterministic fault injection applied on the sending side of each
    /// link (`None` = healthy links).
    pub faults: Option<FaultPlan>,
    /// Frame-body cap enforced by this process's decoders
    /// ([`crate::frame::MAX_FRAME_BYTES`] by default). Lowering it bounds
    /// per-link memory and forces senders — the chunked resume stream in
    /// particular — to keep individual frames small.
    pub max_frame_bytes: usize,
}

impl TcpMeshConfig {
    /// Defaults tuned for loopback clusters: 500 ms heartbeats, 5 s
    /// liveness, 30 s establishment budget, 20 ms → 500 ms dial backoff,
    /// session 0, no fault injection.
    pub fn new(proc_id: u32, n_procs: u32) -> Self {
        TcpMeshConfig {
            proc_id,
            n_procs,
            session: 0,
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(30),
            dial_backoff_start: Duration::from_millis(20),
            dial_backoff_max: Duration::from_millis(500),
            faults: None,
            max_frame_bytes: crate::frame::MAX_FRAME_BYTES,
        }
    }

    /// Check the knobs for internal consistency. [`TcpMesh::establish`]
    /// calls this; executives validate earlier to fail before spawning
    /// processes.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_procs == 0 {
            return Err("n_procs must be at least 1".into());
        }
        if self.proc_id >= self.n_procs {
            return Err(format!(
                "proc_id {} out of range for {} procs",
                self.proc_id, self.n_procs
            ));
        }
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat_interval must be positive".into());
        }
        if self.liveness_timeout <= self.heartbeat_interval {
            return Err(format!(
                "liveness_timeout ({:?}) must exceed heartbeat_interval ({:?}) \
                 or every idle link is declared dead",
                self.liveness_timeout, self.heartbeat_interval
            ));
        }
        if self.connect_timeout.is_zero() {
            return Err("connect_timeout must be positive".into());
        }
        if self.dial_backoff_start.is_zero() {
            return Err("dial_backoff_start must be positive".into());
        }
        if self.dial_backoff_max < self.dial_backoff_start {
            return Err(format!(
                "dial_backoff_max ({:?}) below dial_backoff_start ({:?})",
                self.dial_backoff_max, self.dial_backoff_start
            ));
        }
        // Control frames (Hello, tokens, acks) must always fit; 1 KiB
        // is far above any of them and far below a useful data cap.
        if self.max_frame_bytes < 1024 {
            return Err(format!(
                "max_frame_bytes ({}) below the 1024-byte floor control frames need",
                self.max_frame_bytes
            ));
        }
        Ok(())
    }

    /// How often a link's reader does its idle duties: half the
    /// heartbeat interval, so no live link stays silent for longer than
    /// one interval.
    fn idle_check(&self) -> Duration {
        self.heartbeat_interval / 2
    }
}

/// What the mesh delivers to its owner.
#[derive(Debug, Clone, PartialEq)]
pub enum MeshEvent {
    /// A frame arrived from a peer (or from a loopback self-send).
    Frame {
        /// Sending process id.
        from: u32,
        /// The decoded frame.
        frame: Frame,
    },
    /// A peer's connection ended. `clean` distinguishes a graceful
    /// `Bye` from a crash, half-open link, or protocol violation.
    PeerDown {
        /// The peer process id.
        peer: u32,
        /// True iff the peer announced shutdown with `Bye`.
        clean: bool,
        /// Human-readable cause for diagnostics.
        detail: String,
    },
}

/// A link's inbound hook: runs for every in-order frame (heartbeats and
/// `Bye` excluded) on whichever thread is pumping the link; returns the
/// frames it does not consume, which then surface as
/// [`MeshEvent::Frame`]. A link with a hook is pumped and has no reader
/// thread (module docs).
pub type InboundHook = Box<dyn FnMut(Frame) -> Option<Frame> + Send>;

/// A socket that has nothing for us, or no room, right now: `WouldBlock`
/// on a non-blocking socket, or the expired timeout of a blocking one.
fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Lock a link half, past a poisoning: the worst a panic under the lock
/// leaves behind is a partial frame in a backlog, which the peer's
/// decoder rejects as a corrupt stream — an unclean link loss, which
/// recovery handles — and teardown (`Drop` included) must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connection, shared by every thread that sends on it or reads it.
struct Link {
    /// Clone of the connection, kept so `abort` can slam it shut before
    /// it takes any lock.
    stream: TcpStream,
    /// No thread reads this link: its owner's threads pump it, and its
    /// socket is non-blocking.
    pumped: bool,
    /// The outbound half: frames are stamped, fault-injected and encoded
    /// into its backlog under this lock, which no one holds across I/O.
    tx: Mutex<LinkTx>,
    /// The writer's role, and what its holder writes with.
    wire: Mutex<Wire>,
    /// The inbound half: the link's reader thread, or whoever pumps it.
    rx: Mutex<LinkIn>,
}

/// What the holder of a link's writer role works with.
#[derive(Default)]
struct Wire {
    /// Bytes taken off the backlog that the socket has not taken yet
    /// (they go out first).
    bytes: Vec<u8>,
    /// `write(2)` calls on the socket so far.
    writes: u64,
}

impl Link {
    /// Stage one frame, then write. `wait`: take the writer's role
    /// first, waiting for the current writer, and write this frame
    /// oneself; otherwise leave it to the current writer, if any.
    fn send(&self, frame: Frame, wait: bool) {
        let role = wait.then(|| lock(&self.wire));
        self.stage(frame);
        self.write(role);
    }

    /// Stage one frame behind the backlog and write nothing: the next
    /// send, flush or tick on the link takes it along.
    fn stage(&self, frame: Frame) {
        lock(&self.tx).send(frame);
    }

    /// Write what is staged, unless another thread is writing (see
    /// [`Link::write`]). True when nothing is left for later.
    fn flush(&self) -> bool {
        self.write(None)
    }

    /// As the writer — `role`, or the role if no other thread holds it —
    /// write until nothing is staged or the socket refuses more. Bytes a
    /// sender staged while we wrote are ours to write too: it found the
    /// role taken and left them to us. True when nothing is left for
    /// later; false when the socket refused bytes or another writer has
    /// them.
    fn write(&self, role: Option<MutexGuard<'_, Wire>>) -> bool {
        let mut wire = match role {
            Some(wire) => wire,
            None => match self.wire.try_lock() {
                Ok(wire) => wire,
                Err(_) => return false,
            },
        };
        loop {
            if !self.write_out(&mut wire) {
                return false;
            }
            drop(wire);
            if lock(&self.tx).backlog.is_empty() {
                return true;
            }
            wire = match self.wire.try_lock() {
                Ok(wire) => wire,
                Err(_) => return false,
            };
        }
    }

    /// Write `wire`'s bytes, refilling them from the backlog, until both
    /// are empty (true) or a pumped link's socket refuses more (false;
    /// the rest waits, in order, for the next send, flush or tick). A failed
    /// write closes the link for sending, and its reader reports the
    /// loss. On a blocking link that includes a write the peer took
    /// nothing of for the whole liveness timeout: it is wedged, and a
    /// remainder left for later would be written by whoever flushes next
    /// — possibly a thread that must not wait.
    fn write_out(&self, wire: &mut Wire) -> bool {
        loop {
            if wire.bytes.is_empty() {
                std::mem::swap(&mut wire.bytes, &mut lock(&self.tx).backlog);
                if wire.bytes.is_empty() {
                    return true;
                }
            }
            wire.writes += 1;
            match (&self.stream).write(&wire.bytes) {
                Ok(n) if n > 0 => {
                    wire.bytes.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if self.pumped && would_block(&e) => return false,
                _ => {
                    wire.bytes.clear();
                    lock(&self.tx).fail();
                    return true;
                }
            }
        }
    }

    /// Read what a pumped link's socket holds — unless another thread
    /// is reading it right now. True if any byte arrived. A link with a
    /// reader thread is left to it. Writes nothing: when its backlog goes
    /// out is the pumping thread's call.
    fn pump(&self) -> bool {
        self.pumped && self.rx.try_lock().is_ok_and(|mut rx| rx.read_available())
    }

    /// A pumped link's socket, to sleep on until bytes arrive — unless
    /// nothing more will be read from it: once it is down, its end of
    /// stream would wake every sleep at once.
    fn watch(&self) -> Option<PollFd> {
        let live = self.pumped && self.rx.try_lock().map_or(true, |rx| !rx.done);
        live.then(|| PollFd::readable(self.stream.as_raw_fd()))
    }

    /// The link's idle duties: read a pumped link, declare the link down
    /// once it has been silent past `liveness`, and — once it has sent
    /// nothing for `idle` — heartbeat; flush. [`TcpMesh::tick`] runs
    /// them for pumped links, a reader thread after each read of its own.
    fn tick(&self, idle: Duration, liveness: Duration) {
        if let Ok(mut rx) = self.rx.try_lock() {
            if self.pumped {
                rx.read_available();
            }
            rx.check(liveness);
        }
        lock(&self.tx).heartbeat(idle);
        self.flush();
    }

    /// Bytes staged and not yet written.
    #[cfg(test)]
    fn staged(&self) -> usize {
        lock(&self.wire).bytes.len() + lock(&self.tx).backlog.len()
    }
}

/// A cloneable handle on the mesh's links for the threads that use
/// them: it sends, and it pumps the links no thread reads.
#[derive(Clone)]
pub struct MeshSender {
    proc_id: u32,
    /// Indexed by peer id (`None` at our own id).
    links: Arc<[Option<Arc<Link>>]>,
    loopback: Sender<MeshEvent>,
}

impl MeshSender {
    /// This process's id (the target of a loopback send).
    pub fn proc_id(&self) -> u32 {
        self.proc_id
    }

    /// Send a frame to `to`, written on the calling thread: wait for
    /// another thread's write on the link to finish, then write this
    /// frame and whatever was staged behind it. For threads that may
    /// wait — a large frame is only ever written by the thread that sent
    /// it; a thread that must not wait uses [`post`](Self::post).
    /// Self-sends loop back locally. Sending to a peer whose link already
    /// died is a silent no-op — the owner has (or will) see the
    /// `PeerDown` event and must react there.
    pub fn send(&self, to: u32, frame: Frame) {
        self.deliver(to, frame, |link, frame| link.send(frame, true));
    }

    /// Like [`send`](Self::send), but never wait for another thread's
    /// write: stage the frame and write only if no other thread is
    /// writing the link — that one takes these bytes along. On a pumped
    /// link the socket never blocks: what it refuses waits in the link's
    /// backlog for the next send, flush or tick. A link with a reader
    /// thread blocks, but only until the peer's own reader thread takes
    /// what is already in the socket, and only small frames are ever left
    /// to another thread to write (`send` writes its own).
    pub fn post(&self, to: u32, frame: Frame) {
        self.deliver(to, frame, |link, frame| link.send(frame, false));
    }

    /// Like [`post`](Self::post), but write nothing: the frame is
    /// stamped, fault-injected and encoded into the link's backlog, and
    /// goes out, in order, with the next send, post,
    /// [`flush`](Self::flush) or tick on the link. For a thread that
    /// sends many small frames and then flushes (a worker's LP threads,
    /// at the end of a busy pass of the LP loop): one write for them all.
    pub fn stage(&self, to: u32, frame: Frame) {
        self.deliver(to, frame, Link::stage);
    }

    /// Write every link's backlog, unless another thread is writing that
    /// link — it takes the bytes along. Never waits.
    pub fn flush(&self) {
        for link in self.links.iter().flatten() {
            link.flush();
        }
    }

    /// A self-send loops back locally; a frame for a live peer's link
    /// goes to `send`.
    fn deliver(&self, to: u32, frame: Frame, send: impl FnOnce(&Link, Frame)) {
        if to == self.proc_id {
            let _ = self.loopback.send(MeshEvent::Frame {
                from: self.proc_id,
                frame,
            });
            return;
        }
        if let Some(Some(link)) = self.links.get(to as usize) {
            send(link, frame);
        }
    }

    /// Read what every pumped link's socket holds, delivering through
    /// the link's hook. A link another thread is reading at that moment
    /// is skipped. True if any byte arrived. Writes nothing: a pumping
    /// thread that wants its staged frames out flushes
    /// ([`flush`](Self::flush)).
    pub fn pump(&self) -> bool {
        self.links
            .iter()
            .flatten()
            .fold(false, |any, link| link.pump() | any)
    }

    /// Replace `fds` with the sockets of the pumped links still open for
    /// reading: what a thread that pumps them sleeps on
    /// ([`LaneEndpoint::recv_timeout_watching`](crate::LaneEndpoint::recv_timeout_watching)).
    pub fn watch(&self, fds: &mut Vec<PollFd>) {
        fds.clear();
        fds.extend(self.links.iter().flatten().filter_map(|link| link.watch()));
    }
}

/// A fully-established process mesh. See the module docs for protocol
/// details.
pub struct TcpMesh {
    cfg: TcpMeshConfig,
    out: MeshSender,
    /// One per hook-less link.
    readers: Vec<JoinHandle<()>>,
    /// Set once teardown starts: bounds the reader threads' final drain
    /// so joining them cannot block on a peer that never says `Bye`.
    closing: Arc<AtomicBool>,
    event_rx: Receiver<MeshEvent>,
}

/// Bind a listener on an ephemeral loopback port.
pub fn bind_loopback() -> io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

impl TcpMesh {
    /// This process's id.
    pub fn proc_id(&self) -> u32 {
        self.cfg.proc_id
    }

    /// Total process count.
    pub fn n_procs(&self) -> u32 {
        self.cfg.n_procs
    }

    /// A cloneable sender over the same links.
    pub fn sender(&self) -> MeshSender {
        self.out.clone()
    }

    /// Send a frame to `to` (see [`MeshSender::send`]).
    pub fn send(&self, to: u32, frame: Frame) {
        self.out.send(to, frame);
    }

    /// `write(2)` calls made so far on the link to `peer` (0 where there
    /// is none). Waits for a write in progress on that link.
    pub fn link_writes(&self, peer: u32) -> u64 {
        self.out
            .links
            .get(peer as usize)
            .and_then(Option::as_ref)
            .map_or(0, |link| lock(&link.wire).writes)
    }

    /// Next event if one is already queued.
    pub fn try_recv(&self) -> Option<MeshEvent> {
        self.event_rx.try_recv().ok()
    }

    /// Block up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<MeshEvent> {
        match self.event_rx.recv_timeout(timeout) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// The idle duties of the pumped links, which no thread of their own
    /// watches: read each one, declare it down once it has been silent
    /// past the liveness timeout, and — once it has sent nothing for a
    /// while — heartbeat; flush its backlog. Returns how long the owner
    /// may wait before the next call (half the heartbeat interval). A mesh
    /// with no pumped link has nothing to do here.
    pub fn tick(&self) -> Duration {
        let idle = self.cfg.idle_check();
        for link in self.out.links.iter().flatten().filter(|l| l.pumped) {
            link.tick(idle, self.cfg.liveness_timeout);
        }
        idle
    }

    /// Establish the full mesh. `listener` must already be bound;
    /// `peer_addrs` must contain an address for every peer with an id
    /// lower than `cfg.proc_id` (higher ids dial us and extra entries
    /// are ignored). Blocks until every link is up and handshaken, or
    /// fails within `cfg.connect_timeout`. `inbound` is asked once per
    /// peer for that link's [`InboundHook`]: a link given one is pumped
    /// by its owner, a link given `None` gets a reader thread that puts
    /// every frame on the event queue.
    pub fn establish(
        cfg: TcpMeshConfig,
        listener: TcpListener,
        peer_addrs: &[(u32, SocketAddr)],
        mut inbound: impl FnMut(u32) -> Option<InboundHook>,
    ) -> io::Result<TcpMesh> {
        let streams = establish_links(&cfg, listener, peer_addrs)?;

        let (event_tx, event_rx) = mpsc::channel();
        let closing = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        let mut links = Vec::with_capacity(streams.len());
        for (peer_id, slot) in streams.into_iter().enumerate() {
            let Some((stream, dec)) = slot else {
                links.push(None);
                continue;
            };
            let peer = peer_id as u32;
            let hook = inbound(peer);
            let pumped = hook.is_some();
            if pumped {
                stream.set_nonblocking(true)?;
            } else {
                stream.set_read_timeout(Some(cfg.idle_check()))?;
                // The peer's reader thread drains this link continuously;
                // a write it takes nothing of for this long finds it wedged.
                stream.set_write_timeout(Some(cfg.liveness_timeout))?;
            }
            let faults = cfg.faults.as_ref();
            let tx = LinkTx::new(
                faults.and_then(|p| p.link(cfg.proc_id, peer, cfg.session)),
                faults.and_then(|p| p.link_control(cfg.proc_id, peer, cfg.session)),
            );
            let mut rx = LinkIn::new(peer, stream.try_clone()?, dec, hook, event_tx.clone());
            // Frames the peer pipelined behind its Hello.
            rx.deliver();
            let link = Arc::new(Link {
                stream,
                pumped,
                tx: Mutex::new(tx),
                wire: Mutex::default(),
                rx: Mutex::new(rx),
            });
            if !pumped {
                let (reader_link, closing) = (Arc::clone(&link), Arc::clone(&closing));
                let (idle, live) = (cfg.idle_check(), cfg.liveness_timeout);
                readers.push(
                    thread::Builder::new()
                        .name(format!("mesh-r{}-{peer_id}", cfg.proc_id))
                        .spawn(move || reader_loop(reader_link, idle, live, closing))?,
                );
            }
            links.push(Some(link));
        }

        Ok(TcpMesh {
            out: MeshSender {
                proc_id: cfg.proc_id,
                links: links.into(),
                loopback: event_tx,
            },
            cfg,
            readers,
            closing,
            event_rx,
        })
    }

    /// Graceful shutdown: announce `Bye` on every link behind whatever
    /// it already queued, flush, close the write halves, then drain each
    /// read half until the peer's own `Bye` — or for at most the
    /// liveness timeout if the peer keeps the link open (it may not be
    /// shutting down yet). A pumped link is drained here with blocking
    /// reads; a reader thread drains its own.
    pub fn shutdown(self) {
        self.closing.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + self.cfg.liveness_timeout;
        self.say_bye(deadline);
        for link in self.out.links.iter().flatten().filter(|l| l.pumped) {
            let mut rx = lock(&link.rx);
            if link.stream.set_nonblocking(false).is_err()
                || link
                    .stream
                    .set_read_timeout(Some(self.cfg.idle_check()))
                    .is_err()
            {
                continue;
            }
            while !rx.done && Instant::now() < deadline {
                rx.read_once();
            }
        }
        self.join_readers();
    }

    /// Abrupt teardown: slam every socket shut with no `Bye`, so peers
    /// observe an unclean close. It is how the coordinator ends any
    /// session short of the finish (each worker takes it as proc 0's
    /// loss and regroups), and how fatal-error paths and tests tear a
    /// mesh down.
    pub fn abort(self) {
        self.closing.store(true, Ordering::Relaxed);
        // Sockets first, locks never: a thread blocked writing or
        // reading on any link wakes with an error at once.
        for link in self.out.links.iter().flatten() {
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        self.join_readers();
    }

    fn join_readers(mut self) {
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }

    /// Stage `Bye` on every link, flush every backlog — reading the
    /// pumped links meanwhile, so two processes flushing into each other
    /// cannot wedge — until `deadline`, and close the write half of each
    /// link whose `Bye` went out.
    fn say_bye(&self, deadline: Instant) {
        let links = || self.out.links.iter().flatten();
        let byes: Vec<bool> = links().map(|link| lock(&link.tx).stage_bye()).collect();
        loop {
            let mut pending = false;
            for link in links() {
                link.pump();
                pending |= !link.flush();
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            thread::yield_now();
        }
        for (link, bye) in links().zip(byes) {
            if bye {
                let _ = link.stream.shutdown(Shutdown::Write);
            }
        }
    }
}

impl Drop for TcpMesh {
    /// A mesh dropped without [`shutdown`](TcpMesh::shutdown) or
    /// [`abort`](TcpMesh::abort) still says `Bye` on every link; it does
    /// not wait for the peers' own.
    fn drop(&mut self) {
        if !self.closing.swap(true, Ordering::Relaxed) {
            self.say_bye(Instant::now() + self.cfg.liveness_timeout);
        }
    }
}

/// Floor on the per-connection handshake budget in the accept loop, so
/// sub-second liveness settings (tests) don't reject slow genuine peers.
const ACCEPT_HS_FLOOR: Duration = Duration::from_secs(2);

/// Dial every lower-id peer and accept every higher-id one, handshakes
/// included. Returns one `(connected stream, decoder-with-residue)` per
/// peer slot (`None` at our own id); streams are left in blocking mode.
fn establish_links(
    cfg: &TcpMeshConfig,
    listener: TcpListener,
    peer_addrs: &[(u32, SocketAddr)],
) -> io::Result<Vec<Option<(TcpStream, FrameDecoder)>>> {
    cfg.validate()
        .map_err(|m| io::Error::new(io::ErrorKind::InvalidInput, m))?;
    let deadline = Instant::now() + cfg.connect_timeout;
    let n = cfg.n_procs as usize;
    let mut links: Vec<Option<(TcpStream, FrameDecoder)>> = (0..n).map(|_| None).collect();

    // Dial every lower-id peer concurrently; each dialer retries
    // with exponential backoff so it tolerates peers that have not
    // bound their listener yet.
    let mut dialers = Vec::new();
    for &(peer, addr) in peer_addrs {
        if peer >= cfg.proc_id {
            continue;
        }
        let cfg = cfg.clone();
        dialers.push(thread::spawn(
            move || -> io::Result<(u32, TcpStream, FrameDecoder)> {
                let stream = dial_with_backoff(&cfg, addr, deadline)?;
                let (id, session, dec) = handshake(&stream, &cfg, deadline)?;
                if id != peer {
                    return Err(proto_err(format!(
                        "dialed proc {peer} at {addr} but it identified as proc {id}"
                    )));
                }
                if session != cfg.session {
                    return Err(proto_err(format!(
                        "session mismatch dialing proc {peer}: ours {}, peer {session}",
                        cfg.session
                    )));
                }
                Ok((peer, stream, dec))
            },
        ));
    }
    let expected_dials = dialers.len();
    if expected_dials != cfg.proc_id as usize {
        return Err(proto_err(format!(
            "proc {} needs addresses for all {} lower-id peers, got {}",
            cfg.proc_id, cfg.proc_id, expected_dials
        )));
    }

    // Accept every higher-id peer meanwhile, on a thread that blocks in
    // `accept`: nothing polls. If the deadline passes first, this thread
    // dials the listener once to wake it, and the acceptor, finding the
    // deadline gone, gives up.
    let expect_accepts = n - cfg.proc_id as usize - 1;
    if expect_accepts > 0 {
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        let acceptor = {
            let cfg = cfg.clone();
            thread::spawn(move || {
                let _ = tx.send(accept_links(&cfg, &listener, deadline, expect_accepts));
            })
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let accepted = rx.recv_timeout(left).or_else(|_| {
            let _ = TcpStream::connect(addr);
            rx.recv()
        });
        let _ = acceptor.join();
        let accepted = accepted.map_err(|_| proto_err("acceptor thread panicked".into()))??;
        for (id, stream, dec) in accepted {
            links[id as usize] = Some((stream, dec));
        }
    }

    for d in dialers {
        let (peer, stream, dec) = d
            .join()
            .map_err(|_| proto_err("dialer thread panicked".into()))??;
        links[peer as usize] = Some((stream, dec));
    }
    Ok(links)
}

/// The acceptor of [`establish_links`]: accept `expect` higher-id peers
/// on the blocking `listener`, each handshake bounded on its own, and
/// give up once `deadline` has passed (the caller wakes a blocked
/// `accept` with a connection of its own at the deadline).
fn accept_links(
    cfg: &TcpMeshConfig,
    listener: &TcpListener,
    deadline: Instant,
    expect: usize,
) -> io::Result<Vec<(u32, TcpStream, FrameDecoder)>> {
    let n = cfg.n_procs as usize;
    let mut links: Vec<(u32, TcpStream, FrameDecoder)> = Vec::with_capacity(expect);
    listener.set_nonblocking(false)?;
    while links.len() < expect {
        let (stream, _) = listener.accept()?;
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "proc {}: only {}/{expect} peers connected in time",
                    cfg.proc_id,
                    links.len()
                ),
            ));
        }
        stream.set_nonblocking(false)?;
        // Bound each accepted handshake separately: a zombie connection
        // from a dead session that never writes must not pin the whole
        // establishment.
        let hs_deadline = deadline.min(Instant::now() + cfg.liveness_timeout.max(ACCEPT_HS_FLOOR));
        let (id, session, dec) = match handshake(&stream, cfg, hs_deadline) {
            Ok(hs) => hs,
            // Version/topology mismatches and garbage are a fatal
            // build-skew signal...
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
            // ...but a connection that stalls or dies mid-handshake is
            // just a stale dialer: keep accepting.
            Err(_) => continue,
        };
        if session != cfg.session {
            // A dial left over from a dead session; reject the
            // connection, not the establishment.
            continue;
        }
        if id <= cfg.proc_id || id as usize >= n {
            return Err(proto_err(format!(
                "accepted a connection claiming proc id {id}, expected one of {}..{}",
                cfg.proc_id + 1,
                n
            )));
        }
        if links.iter().any(|(p, ..)| *p == id) {
            return Err(proto_err(format!("proc {id} connected twice")));
        }
        links.push((id, stream, dec));
    }
    Ok(links)
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Deterministic "equal jitter" dial backoff: attempt `n` sleeps
/// somewhere in `[exp/2, exp]`, where `exp = start·2ⁿ` capped at `max`.
/// The point within the band is a pure hash of `(seed, attempt)`, so a
/// given dialer backs off identically on every run (reproducible
/// tests), while distinct dialers — distinct seeds — spread out across
/// the band instead of retrying in lock-step. That spread is what keeps
/// a whole cluster re-dialing after a recovery from thundering-herding
/// one listener.
fn jittered_backoff(start: Duration, max: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = start.saturating_mul(1u32 << attempt.min(16)).min(max);
    let half = exp / 2;
    let span = exp.saturating_sub(half).as_nanos() as u64;
    let jitter = if span == 0 {
        0
    } else {
        splitmix(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (span + 1)
    };
    half + Duration::from_nanos(jitter)
}

/// SplitMix64 finalizer — a tiny, well-mixed hash for the deterministic
/// dial jitter. Quality matters less than determinism and independence.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-dialer jitter seed: decorrelates processes retrying against the
/// same listener without any shared state (deterministic per identity).
fn dial_seed(proc_id: u32, addr: &SocketAddr) -> u64 {
    splitmix(((proc_id as u64) << 32) ^ ((addr.port() as u64) << 8) ^ 0xD1A1)
}

fn dial_with_backoff(
    cfg: &TcpMeshConfig,
    addr: SocketAddr,
    deadline: Instant,
) -> io::Result<TcpStream> {
    let seed = dial_seed(cfg.proc_id, &addr);
    let mut attempt = 0u32;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("gave up dialing {addr}"),
            ));
        }
        let attempt_budget = (deadline - now).min(Duration::from_secs(1));
        match TcpStream::connect_timeout(&addr, attempt_budget) {
            Ok(s) => return Ok(s),
            Err(_) => {
                let pause =
                    jittered_backoff(cfg.dial_backoff_start, cfg.dial_backoff_max, attempt, seed);
                thread::sleep(pause.min(deadline.saturating_duration_since(Instant::now())));
                attempt = attempt.saturating_add(1);
            }
        }
    }
}

/// Exchange `Hello`s on a fresh connection. Returns the peer's claimed
/// proc id and session epoch, plus a decoder holding any bytes the peer
/// pipelined after its `Hello` — those must seed the reader, not be
/// dropped. The caller decides what a session mismatch means (fatal for
/// a dialer, skip-the-connection for the accept loop).
fn handshake(
    stream: &TcpStream,
    cfg: &TcpMeshConfig,
    deadline: Instant,
) -> io::Result<(u32, u32, FrameDecoder)> {
    stream.set_nodelay(true)?;
    let ours = Frame::Hello {
        version: PROTO_VERSION,
        proc_id: cfg.proc_id,
        n_procs: cfg.n_procs,
        session: cfg.session,
    };
    (&*stream).write_all(&ours.encode())?;

    let mut dec = FrameDecoder::with_limit(cfg.max_frame_bytes);
    let mut buf = [0u8; 4096];
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let frame = loop {
        if let Some(f) = dec.next().map_err(|e| proto_err(e.to_string()))? {
            break f;
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "peer never completed the handshake",
            ));
        }
        match (&*stream).read(&mut buf) {
            Ok(0) => {
                // Not `InvalidData`: a vanished dialer is a liveness
                // accident, not build skew, and the accept loop survives
                // it.
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed during handshake",
                ));
            }
            Ok(n) => dec.push(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    };
    match frame {
        Frame::Hello {
            version,
            proc_id,
            n_procs,
            session,
        } => {
            if version != PROTO_VERSION {
                return Err(proto_err(format!(
                    "protocol version mismatch: ours {PROTO_VERSION}, peer {version}"
                )));
            }
            if n_procs != cfg.n_procs {
                return Err(proto_err(format!(
                    "topology mismatch: we expect {} procs, peer expects {n_procs}",
                    cfg.n_procs
                )));
            }
            Ok((proc_id, session, dec))
        }
        other => Err(proto_err(format!(
            "expected Hello as the first frame, got {other:?}"
        ))),
    }
}

/// A link's outbound half: its backlog, data-frame sequence stamping and
/// fault injection. [`Link::write`] takes the backlog to the socket.
struct LinkTx {
    /// Encoded bytes no writer has taken yet, oldest first. A send
    /// appends behind them, so frames reach the wire in send order.
    backlog: Vec<u8>,
    /// When a frame was last staged: the idle clock behind heartbeats.
    last_send: Instant,
    /// `Bye` was staged or a write failed: nothing more is staged.
    closed: bool,
    next_seq: u64,
    chaos: Option<LinkChaos>,
    /// Control-plane (`Token`/`GvtNews`) chaos: its own rule stream with
    /// its own ordinal counter, so a control partition silences the GVT
    /// ring while data and heartbeats keep flowing.
    ctl_chaos: Option<LinkChaos>,
    ctl_next_seq: u64,
    /// A `Partition` rule fired: the link is silent for the session.
    partitioned: bool,
}

impl LinkTx {
    fn new(chaos: Option<LinkChaos>, ctl_chaos: Option<LinkChaos>) -> Self {
        LinkTx {
            backlog: Vec::with_capacity(4096),
            last_send: Instant::now(),
            closed: false,
            next_seq: 0,
            chaos,
            ctl_chaos,
            ctl_next_seq: 0,
            partitioned: false,
        }
    }

    /// Stage one frame behind the backlog.
    fn send(&mut self, frame: Frame) {
        if self.closed {
            return;
        }
        self.stage(frame);
        self.last_send = Instant::now();
    }

    /// A write failed: drop everything and stage nothing more — the
    /// link's reader reports the dead link.
    fn fail(&mut self) {
        self.closed = true;
        self.backlog.clear();
    }

    /// Once nothing was staged for `idle`, stage a heartbeat.
    fn heartbeat(&mut self, idle: Duration) {
        if !self.closed && !self.partitioned && self.last_send.elapsed() >= idle {
            Frame::Heartbeat.encode_into(&mut self.backlog);
            self.last_send = Instant::now();
        }
    }

    /// Stage `Bye` behind everything queued, and accept nothing more. A
    /// partitioned link stays silent instead. True if a `Bye` was staged.
    fn stage_bye(&mut self) -> bool {
        if self.closed {
            return false;
        }
        self.closed = true;
        if self.partitioned {
            return false;
        }
        Frame::Bye.encode_into(&mut self.backlog);
        true
    }

    /// Stamp and encode one outgoing frame into the backlog, applying
    /// any fault rules. A frame a rule swallows still counts.
    fn stage(&mut self, mut frame: Frame) {
        let out = &mut self.backlog;
        if self.partitioned {
            return;
        }
        let (chaos, count) = match &mut frame {
            Frame::Token { .. } | Frame::GvtNews { .. } => {
                (&self.ctl_chaos, &mut self.ctl_next_seq)
            }
            Frame::Data { seq, .. } => {
                *seq = self.next_seq;
                (&self.chaos, &mut self.next_seq)
            }
            _ => {
                frame.encode_into(out);
                return;
            }
        };
        let n = *count;
        *count += 1;
        let data = matches!(frame, Frame::Data { .. });
        match chaos.as_ref().map_or(DataFate::Deliver, |c| c.fate(n)) {
            DataFate::Deliver => frame.encode_into(out),
            // Frames already in the backlog still go out (they precede
            // the partition point); everything from here on is
            // swallowed, heartbeats included.
            DataFate::Partition if data => self.partitioned = true,
            // Swallowed, and so is every later frame of its scope. In
            // control scope a partition is this too: GVT frames vanish,
            // all else flows — the wedged-but-connected failure mode.
            DataFate::Blackhole | DataFate::Partition => {}
            DataFate::Crash => std::process::abort(),
        }
    }
}

/// What [`LinkRx::on_frame`] concluded about one decoded frame.
#[derive(Debug)]
enum RxStatus {
    /// Keep reading.
    Open,
    /// The peer ended its stream: cleanly with `Bye`, uncleanly with a
    /// data frame out of sequence.
    Closed { clean: bool, detail: String },
    /// The mesh owner dropped its receiver; stop reading silently.
    OwnerGone,
}

/// Per-link inbound sequence check.
struct LinkRx {
    /// The next expected data-frame sequence number.
    expected_seq: u64,
}

impl LinkRx {
    fn new() -> Self {
        LinkRx { expected_seq: 0 }
    }

    /// Check one decoded frame and hand it to `offer` (which returns
    /// false once the mesh owner is gone). A data frame that is not the
    /// next in sequence ends the stream: one TCP connection neither
    /// loses, repeats nor reorders frames, so such bytes are corrupt.
    fn on_frame(&mut self, frame: Frame, offer: &mut impl FnMut(Frame) -> bool) -> RxStatus {
        match frame {
            Frame::Heartbeat => return RxStatus::Open,
            Frame::Bye => {
                return RxStatus::Closed {
                    clean: true,
                    detail: "peer said Bye".into(),
                }
            }
            Frame::Data { seq, .. } if seq != self.expected_seq => {
                return RxStatus::Closed {
                    clean: false,
                    detail: format!(
                        "data frame {seq} out of sequence (expected {})",
                        self.expected_seq
                    ),
                }
            }
            Frame::Data { .. } => self.expected_seq += 1,
            _ => {}
        }
        if offer(frame) {
            RxStatus::Open
        } else {
            RxStatus::OwnerGone
        }
    }
}

/// A link's inbound half: the read side of the connection, the decoder,
/// the sequence check, and delivery to the hook or the owner's event queue.
/// A reader thread and [`Link::pump`] drive this same code.
struct LinkIn {
    peer: u32,
    stream: TcpStream,
    dec: FrameDecoder,
    seq: LinkRx,
    hook: Option<InboundHook>,
    events: Sender<MeshEvent>,
    buf: Vec<u8>,
    last_byte: Instant,
    /// The link was reported down, or its owner is gone: nothing more is
    /// read.
    done: bool,
}

impl LinkIn {
    fn new(
        peer: u32,
        stream: TcpStream,
        dec: FrameDecoder,
        hook: Option<InboundHook>,
        events: Sender<MeshEvent>,
    ) -> Self {
        LinkIn {
            peer,
            stream,
            dec,
            seq: LinkRx::new(),
            hook,
            events,
            buf: vec![0; 64 * 1024],
            last_byte: Instant::now(),
            done: false,
        }
    }

    /// One read — blocking or not, as the socket is set — and delivery of
    /// whatever it completed. `None` when there was nothing to read;
    /// otherwise the bytes that arrived (0 on an interrupted read, and on
    /// an EOF or error, which take the link down).
    fn read_once(&mut self) -> Option<usize> {
        match (&self.stream).read(&mut self.buf) {
            Ok(0) => self.down(false, "connection closed without Bye".into()),
            Ok(n) => {
                self.last_byte = Instant::now();
                self.dec.push(&self.buf[..n]);
                self.deliver();
                return Some(n);
            }
            Err(e) if would_block(&e) => return None,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => self.down(false, format!("read failed: {e}")),
        }
        Some(0)
    }

    /// Read until the socket would block, or until a read that did not
    /// fill the buffer: the socket had no more than that, and asking
    /// again would almost always cost an empty read. Bytes arriving
    /// meanwhile wait for the next pump. True if any byte arrived.
    fn read_available(&mut self) -> bool {
        let mut any = false;
        while !self.done {
            let Some(n) = self.read_once() else { break };
            any |= n > 0;
            if (1..self.buf.len()).contains(&n) {
                break;
            }
        }
        any
    }

    /// Run every frame the decoder completed through the sequence check,
    /// in order, into the hook or the event queue.
    fn deliver(&mut self) {
        let (hook, events, peer) = (&mut self.hook, &self.events, self.peer);
        let mut offer = |frame: Frame| {
            let frame = match hook.as_mut() {
                Some(hook) => match hook(frame) {
                    Some(frame) => frame,
                    None => return true,
                },
                None => frame,
            };
            events.send(MeshEvent::Frame { from: peer, frame }).is_ok()
        };
        let end = loop {
            if self.done {
                return;
            }
            match self.dec.next() {
                Ok(Some(frame)) => match self.seq.on_frame(frame, &mut offer) {
                    RxStatus::Open => {}
                    end => break end,
                },
                Ok(None) => return,
                Err(e) => {
                    break RxStatus::Closed {
                        clean: false,
                        detail: format!("stream corrupt: {e}"),
                    }
                }
            }
        };
        self.end(end);
    }

    /// A link silent for longer than the liveness budget is down.
    fn check(&mut self, liveness: Duration) {
        if !self.done && self.last_byte.elapsed() > liveness {
            self.down(false, format!("half-open link: silent for {liveness:?}"));
        }
    }

    fn down(&mut self, clean: bool, detail: String) {
        self.end(RxStatus::Closed { clean, detail });
    }

    /// Stop reading; a closed link is reported to the owner once.
    fn end(&mut self, status: RxStatus) {
        if self.done {
            return;
        }
        self.done = true;
        if let RxStatus::Closed { clean, detail } = status {
            let _ = self.events.send(MeshEvent::PeerDown {
                peer: self.peer,
                clean,
                detail,
            });
        }
    }
}

/// A hook-less link's reader thread: block on the socket (the read
/// timeout is the idle-check period) and deliver, then do the link's
/// idle duties ([`Link::tick`]). Nothing else takes the link's inbound
/// half, so its lock is never contended.
fn reader_loop(link: Arc<Link>, idle: Duration, liveness: Duration, closing: Arc<AtomicBool>) {
    let mut closing_since: Option<Instant> = None;
    loop {
        // Once our side starts shutting down, drain for at most the
        // liveness budget: a peer that is not shutting down yet keeps
        // heartbeating and would otherwise pin this thread (and the
        // owner's `shutdown` join) forever.
        if closing.load(Ordering::Relaxed) {
            let since = *closing_since.get_or_insert_with(Instant::now);
            if since.elapsed() > liveness {
                return;
            }
        }
        {
            let mut rx = lock(&link.rx);
            if rx.done {
                return;
            }
            rx.read_once();
        }
        link.tick(idle, liveness);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::gvt::GvtToken;
    use warp_core::VirtualTime;

    #[test]
    fn jittered_backoff_is_deterministic_banded_and_capped() {
        let start = Duration::from_millis(20);
        let max = Duration::from_millis(500);
        for attempt in 0..20 {
            let a = jittered_backoff(start, max, attempt, 42);
            let b = jittered_backoff(start, max, attempt, 42);
            assert_eq!(a, b, "same seed+attempt must sleep identically");
            let exp = start.saturating_mul(1u32 << attempt.min(16)).min(max);
            assert!(a >= exp / 2, "attempt {attempt}: {a:?} below band");
            assert!(a <= exp, "attempt {attempt}: {a:?} above band");
            assert!(a <= max, "attempt {attempt}: {a:?} above cap");
        }
        // Distinct seeds must not retry in lock-step: across a spread of
        // dialers at the same attempt, at least two pick different points.
        let picks: Vec<Duration> = (0..8)
            .map(|seed| jittered_backoff(start, max, 4, seed))
            .collect();
        assert!(
            picks.iter().any(|p| *p != picks[0]),
            "eight seeds all chose {:?} — no jitter spread",
            picks[0]
        );
    }

    fn fast_cfg(proc_id: u32, n_procs: u32) -> TcpMeshConfig {
        TcpMeshConfig {
            heartbeat_interval: Duration::from_millis(40),
            liveness_timeout: Duration::from_millis(400),
            connect_timeout: Duration::from_secs(10),
            ..TcpMeshConfig::new(proc_id, n_procs)
        }
    }

    fn pair() -> (TcpMesh, TcpMesh) {
        pair_with(fast_cfg(0, 2), fast_cfg(1, 2))
    }

    fn pair_with(cfg0: TcpMeshConfig, cfg1: TcpMeshConfig) -> (TcpMesh, TcpMesh) {
        pair_hooked(cfg0, cfg1, None, None)
    }

    /// A pair whose procs run `hook0` / `hook1` on their link (pumped;
    /// `None`: served by a reader thread).
    fn pair_hooked(
        cfg0: TcpMeshConfig,
        cfg1: TcpMeshConfig,
        mut hook0: Option<InboundHook>,
        mut hook1: Option<InboundHook>,
    ) -> (TcpMesh, TcpMesh) {
        let l0 = bind_loopback().unwrap();
        let l1 = bind_loopback().unwrap();
        let a0 = l0.local_addr().unwrap();
        let t = thread::spawn(move || {
            TcpMesh::establish(cfg1, l1, &[(0, a0)], |_| hook1.take()).unwrap()
        });
        let m0 = TcpMesh::establish(cfg0, l0, &[], |_| hook0.take()).unwrap();
        (m0, t.join().unwrap())
    }

    /// For a pumped link, a hook that hands every frame back to the event
    /// queue; `None` (a reader thread) otherwise.
    fn relay(pumped: bool) -> Option<InboundHook> {
        pumped.then(|| Box::new(Some::<Frame>) as InboundHook)
    }

    /// A full mesh shaped like a cluster: proc 0 coordinates, and the
    /// links between the other procs are pumped, as a worker's links to
    /// its peer workers are.
    fn cluster(n: u32) -> Vec<TcpMesh> {
        let ls: Vec<_> = (0..n).map(|_| bind_loopback().unwrap()).collect();
        let addrs: Vec<_> = ls.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut handles = Vec::new();
        for (i, l) in (0..n).zip(ls).rev() {
            let peers: Vec<_> = (0..i).map(|j| (j, addrs[j as usize])).collect();
            handles.push(thread::spawn(move || {
                TcpMesh::establish(fast_cfg(i, n), l, &peers, |peer| relay(i > 0 && peer > 0))
                    .unwrap()
            }));
        }
        let mut meshes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        meshes.sort_by_key(|m| m.proc_id());
        meshes
    }

    /// Shut both ends down at once, so neither waits out the other's
    /// liveness budget for its `Bye`.
    fn shutdown_pair(m0: TcpMesh, m1: TcpMesh) {
        let t = thread::spawn(move || m1.shutdown());
        m0.shutdown();
        t.join().unwrap();
    }

    /// Do `m`'s idle duties for `d`, as a worker's session thread would.
    fn tick_for(m: &TcpMesh, d: Duration) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            thread::sleep(m.tick());
        }
    }

    /// An empty-payload data frame; `epoch` doubles as the test's marker.
    fn data(epoch: u32) -> Frame {
        Frame::Data {
            seq: 0, // stamped by the sending link
            epoch,
            msg: crate::aggregate::PhysMsg {
                src: warp_core::LpId(0),
                dst: warp_core::LpId(1),
                events: crate::EventBatch::new(),
            },
        }
    }

    /// A data frame as a peer's link stamps it: `data(seq)` at `seq`.
    fn data_at(seq: u64) -> Frame {
        let Frame::Data { epoch, msg, .. } = data(seq as u32) else {
            unreachable!()
        };
        Frame::Data { seq, epoch, msg }
    }

    fn recv_data_epochs(m: &TcpMesh, n: usize) -> Vec<u32> {
        let mut got = Vec::new();
        while got.len() < n {
            match expect_frame(m) {
                (_, Frame::Data { epoch, .. }) => got.push(epoch),
                (_, other) => panic!("expected Data, got {other:?}"),
            }
        }
        got
    }

    fn token(round: u32) -> Frame {
        Frame::Token {
            dst_lp: 0,
            token: GvtToken {
                round,
                min: VirtualTime::new(5),
                count: 0,
            },
        }
    }

    /// The next frame, ticking `m` meanwhile as its owner would.
    fn expect_frame(m: &TcpMesh) -> (u32, Frame) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match m.recv_timeout(m.tick()) {
                Some(MeshEvent::Frame { from, frame }) => return (from, frame),
                Some(MeshEvent::PeerDown { peer, detail, .. }) => {
                    panic!("peer {peer} went down while a frame was expected: {detail}")
                }
                None => {}
            }
        }
        panic!("no frame within 5s");
    }

    fn expect_down(m: &TcpMesh) -> (u32, bool) {
        let (peer, clean, _) = expect_down_detail(m);
        (peer, clean)
    }

    fn expect_down_detail(m: &TcpMesh) -> (u32, bool, String) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(MeshEvent::PeerDown {
                peer,
                clean,
                detail,
            }) = m.recv_timeout(m.tick())
            {
                return (peer, clean, detail);
            }
        }
        panic!("no PeerDown within 5s");
    }

    #[test]
    fn two_procs_exchange_and_shut_down_cleanly() {
        let (m0, m1) = pair();
        m0.send(1, token(1));
        m1.send(0, token(2));
        assert_eq!(expect_frame(&m1), (0, token(1)));
        assert_eq!(expect_frame(&m0), (1, token(2)));

        let t = thread::spawn(move || {
            assert_eq!(expect_down(&m1), (0, true));
            m1.shutdown();
        });
        m0.send(1, token(3)); // queued before Bye — must still arrive? drained by reader exit
        m0.shutdown();
        t.join().unwrap();
    }

    #[test]
    fn self_send_loops_back_locally() {
        let (m0, m1) = pair();
        m0.send(0, token(9));
        assert_eq!(expect_frame(&m0), (0, token(9)));
        m0.shutdown();
        m1.shutdown();
    }

    #[test]
    fn three_proc_mesh_routes_every_pair() {
        let meshes = cluster(3);
        for src in 0..3u32 {
            for dst in 0..3u32 {
                if src == dst {
                    continue;
                }
                meshes[src as usize].send(dst, token(src * 10 + dst));
                assert_eq!(
                    expect_frame(&meshes[dst as usize]),
                    (src, token(src * 10 + dst))
                );
            }
        }
        for m in meshes {
            thread::spawn(move || m.shutdown());
        }
    }

    #[test]
    fn dialer_retries_until_listener_appears() {
        // Learn a free port, release it, and only re-bind it after the
        // dialer has been retrying for a while.
        let probe = bind_loopback().unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let t = thread::spawn(move || {
            TcpMesh::establish(
                fast_cfg(1, 2),
                bind_loopback().unwrap(),
                &[(0, addr)],
                |_| None,
            )
        });
        thread::sleep(Duration::from_millis(300));
        let listener = TcpListener::bind(addr).expect("ephemeral port rebind");
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[], |_| None).unwrap();
        let m1 = t.join().unwrap().unwrap();
        m1.send(0, token(7));
        assert_eq!(expect_frame(&m0), (1, token(7)));
        m0.shutdown();
        m1.shutdown();
    }

    #[test]
    fn killed_peer_is_reported_unclean() {
        let (m0, m1) = pair();
        m1.abort(); // no Bye — simulates a killed worker
        let (peer, clean) = expect_down(&m0);
        assert_eq!(peer, 1);
        assert!(!clean, "abrupt close must not look like a graceful Bye");
        m0.abort();
    }

    #[test]
    fn idle_link_stays_alive_on_heartbeats() {
        for pumped in [false, true] {
            let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), None, relay(pumped));
            // Well past the liveness timeout with no application traffic;
            // a pumped link heartbeats and checks liveness on its ticks.
            tick_for(&m1, Duration::from_millis(900));
            assert!(m0.try_recv().is_none(), "heartbeats must not surface");
            assert!(m1.try_recv().is_none(), "heartbeats must not surface");
            m0.send(1, token(4));
            assert_eq!(expect_frame(&m1), (0, token(4)));
            shutdown_pair(m0, m1);
        }
    }

    #[test]
    fn dropped_mesh_still_says_bye() {
        for pumped in [false, true] {
            let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), relay(pumped), None);
            drop(m0);
            assert_eq!(expect_down(&m1), (0, true), "pumped: {pumped}");
            m1.shutdown();
        }
    }

    #[test]
    fn backlog_keeps_order_and_never_blocks_the_sender() {
        let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), relay(true), relay(true));
        // 16 MiB in 64 KiB frames while proc 1 reads nothing: far more
        // than both socket buffers hold.
        let n = 256u32;
        let bulky = |epoch| Frame::Data {
            seq: 0,
            epoch,
            msg: crate::aggregate::PhysMsg {
                src: warp_core::LpId(0),
                dst: warp_core::LpId(1),
                events: crate::EventBatch::one(warp_core::Event::new(
                    warp_core::event::EventId {
                        sender: warp_core::ObjectId(0),
                        serial: epoch.into(),
                    },
                    warp_core::ObjectId(1),
                    VirtualTime::new(1),
                    VirtualTime::new(2),
                    0,
                    vec![epoch as u8; 64 << 10],
                )),
            },
        };
        let sender = m0.sender();
        let (sent_tx, sent) = mpsc::channel();
        thread::spawn(move || {
            // Sent, posted and staged in turn: what one of them leaves
            // behind, the next takes along, in order.
            for epoch in 0..n {
                match epoch % 3 {
                    0 => sender.send(1, bulky(epoch)),
                    1 => sender.post(1, bulky(epoch)),
                    _ => sender.stage(1, bulky(epoch)),
                }
            }
            sent_tx.send(()).unwrap();
        });
        sent.recv_timeout(Duration::from_secs(10))
            .expect("a send blocked on a peer that is not reading");
        let link = m0.out.links[1].as_ref().unwrap();
        assert!(
            link.staged() > 0,
            "the burst fit the socket buffers: nothing exercised the backlog"
        );

        // Proc 0's ticks flush the backlog, proc 1's read it.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < n as usize {
            assert!(
                Instant::now() < deadline,
                "{} of {n} frames arrived",
                got.len()
            );
            m0.tick();
            m1.tick();
            while let Some(ev) = m1.try_recv() {
                match ev {
                    MeshEvent::Frame {
                        frame: Frame::Data { epoch, msg, .. },
                        ..
                    } => {
                        assert_eq!(msg.events[0].payload, vec![epoch as u8; 64 << 10]);
                        got.push(epoch);
                    }
                    other => panic!("expected Data, got {other:?}"),
                }
            }
        }
        assert_eq!(
            got,
            (0..n).collect::<Vec<_>>(),
            "every frame once, in order"
        );
        shutdown_pair(m0, m1);
    }

    #[test]
    fn staged_frames_wait_for_a_flush_or_a_post_not_a_pump() {
        let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), relay(true), relay(true));
        let out = m0.sender();
        let link = m0.out.links[1].as_ref().unwrap();
        for (round, write) in ["flush", "post"].into_iter().enumerate() {
            let epochs = 3 * round as u32..3 * round as u32 + 3;
            let mut wire = Vec::new();
            for epoch in epochs.clone() {
                out.stage(1, data(epoch));
                // One frame per epoch, so the link stamps `seq` = epoch.
                let Frame::Data { msg, .. } = data(epoch) else {
                    unreachable!()
                };
                let seq = epoch.into();
                Frame::Data { seq, epoch, msg }.encode_into(&mut wire);
            }
            assert_eq!(link.staged(), wire.len(), "{write}: staging wrote bytes");
            // Nothing proc 0 does meanwhile writes, its pumps included:
            // proc 1 reads nothing.
            let quiet = Instant::now() + Duration::from_millis(60);
            while Instant::now() < quiet {
                out.pump();
                assert_eq!(
                    m1.recv_timeout(m1.tick()),
                    None,
                    "{write}: a staged frame arrived"
                );
            }
            assert_eq!(link.staged(), wire.len(), "{write}: a pump wrote");
            match write {
                "flush" => out.flush(),
                _ => out.post(1, token(9)),
            }
            assert_eq!(link.staged(), 0, "{write} left bytes staged");
            assert_eq!(recv_data_epochs(&m1, 3), epochs.collect::<Vec<_>>());
        }
        assert_eq!(expect_frame(&m1), (0, token(9)));
        shutdown_pair(m0, m1);
    }

    #[test]
    fn a_posted_token_arrives_behind_the_frames_staged_before_it() {
        for pumped in [false, true] {
            let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), relay(true), relay(pumped));
            let out = m0.sender();
            for epoch in 0..16 {
                out.stage(1, data(epoch));
            }
            out.post(1, token(3));
            out.stage(1, data(16));
            out.flush();
            assert_eq!(recv_data_epochs(&m1, 16), (0..16).collect::<Vec<_>>());
            assert_eq!(expect_frame(&m1), (0, token(3)), "pumped: {pumped}");
            assert_eq!(recv_data_epochs(&m1, 1), vec![16]);
            shutdown_pair(m0, m1);
        }
    }

    #[test]
    fn post_never_waits_behind_a_blocking_write() {
        // A raw proc 1 that handshakes, then reads nothing until told to:
        // proc 0's link to it has a reader thread and a blocking socket.
        let listener = bind_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let (go_tx, go) = mpsc::channel::<()>();
        let peer = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello {
                version: PROTO_VERSION,
                proc_id: 1,
                n_procs: 2,
                session: 0,
            };
            (&s).write_all(&hello.encode()).unwrap();
            go.recv().unwrap();
            let (mut dec, mut buf, mut got) = (FrameDecoder::new(), vec![0u8; 64 << 10], vec![]);
            while got.len() < 3 {
                let n = (&s).read(&mut buf).unwrap();
                assert!(n > 0, "proc 0 closed the link early");
                dec.push(&buf[..n]);
                while let Some(frame) = dec.next().unwrap() {
                    if frame != Frame::Heartbeat {
                        got.push(frame);
                    }
                }
            }
            got
        });
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[], |_| None).unwrap();
        // More than both socket buffers hold: this write blocks, holding
        // the writer's role, until proc 1 reads.
        let bulk = Frame::Telemetry(vec![7; 16 << 20]);
        let writer = {
            let (out, bulk) = (m0.sender(), bulk.clone());
            thread::spawn(move || out.send(1, bulk))
        };
        let link = m0.out.links[1].as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while link.wire.try_lock().is_ok() {
            assert!(Instant::now() < deadline, "the bulk send never started");
            thread::sleep(Duration::from_millis(1));
        }
        m0.sender().post(1, token(5));
        assert!(
            !writer.is_finished(),
            "the post returned only once the blocked write had finished"
        );
        go_tx.send(()).unwrap();
        writer.join().unwrap();
        let got = peer.join().unwrap();
        assert!(matches!(got[0], Frame::Hello { proc_id: 0, .. }));
        assert!(got[1] == bulk, "the bulk frame arrived first, intact");
        assert_eq!(got[2], token(5), "the writer took the post along");
        m0.abort();
    }

    /// Names of this process's threads.
    #[cfg(target_os = "linux")]
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pumped_links_spawn_no_threads() {
        // Only this test and `three_proc_mesh_routes_every_pair` build a
        // link between procs 1 and 2, and both pump it.
        let meshes = cluster(3);
        // A thread names itself once it first runs: wait for the
        // coordinator links' readers to.
        let deadline = Instant::now() + Duration::from_secs(5);
        let names = loop {
            let names = thread_names();
            let readers = ["mesh-r0-1", "mesh-r0-2", "mesh-r1-0", "mesh-r2-0"];
            if readers.iter().all(|r| names.iter().any(|n| n == r)) {
                break names;
            }
            assert!(
                Instant::now() < deadline,
                "a coordinator link has no reader thread: {names:?}"
            );
            thread::sleep(Duration::from_millis(1));
        };
        for pumped in ["mesh-r1-2", "mesh-r2-1"] {
            assert!(
                !names.iter().any(|n| n == pumped),
                "a pumped link has a reader thread: {names:?}"
            );
        }
        assert!(
            !names.iter().any(|n| n
                .strip_prefix("mesh-")
                .is_some_and(|kind| kind.starts_with('w'))),
            "a link has a writer thread: {names:?}"
        );
        for m in meshes {
            thread::spawn(move || m.shutdown());
        }
    }

    #[test]
    fn version_mismatch_aborts_establishment() {
        let listener = bind_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            let bad = Frame::Hello {
                version: PROTO_VERSION + 1,
                proc_id: 1,
                n_procs: 2,
                session: 0,
            };
            (&s).write_all(&bad.encode()).unwrap();
            // Hold the socket open long enough for the other side to read.
            thread::sleep(Duration::from_millis(500));
        });
        let err = match TcpMesh::establish(fast_cfg(0, 2), listener, &[], |_| None) {
            Ok(_) => panic!("establishment must fail on a version mismatch"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
        rogue.join().unwrap();
    }

    #[test]
    fn dribbled_bytes_decode_across_segment_boundaries() {
        // A raw peer that handshakes correctly, then writes a Data-bearing
        // stream one byte at a time — every frame must still decode.
        let listener = bind_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let rogue = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            let hello = Frame::Hello {
                version: PROTO_VERSION,
                proc_id: 1,
                n_procs: 2,
                session: 0,
            };
            (&s).write_all(&hello.encode()).unwrap();
            let mut payload = Vec::new();
            token(31).encode_into(&mut payload);
            token(32).encode_into(&mut payload);
            Frame::Bye.encode_into(&mut payload);
            for b in payload {
                (&s).write_all(&[b]).unwrap();
                thread::sleep(Duration::from_micros(200));
            }
            // Drain until the mesh closes so its writer never sees EPIPE
            // mid-test.
            let mut sink = [0u8; 1024];
            while matches!((&s).read(&mut sink), Ok(n) if n > 0) {}
        });
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[], |_| None).unwrap();
        assert_eq!(expect_frame(&m0), (1, token(31)));
        assert_eq!(expect_frame(&m0), (1, token(32)));
        assert_eq!(expect_down(&m0), (1, true));
        m0.shutdown();
        rogue.join().unwrap();
    }

    /// A raw proc 1 that handshakes with a proc 0 whose link to it is
    /// pumped (or has a reader thread): the test writes proc 1's bytes
    /// itself.
    fn raw_peer(pumped: bool) -> (TcpMesh, TcpStream) {
        let listener = bind_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let dialer = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello {
                version: PROTO_VERSION,
                proc_id: 1,
                n_procs: 2,
                session: 0,
            };
            (&s).write_all(&hello.encode()).unwrap();
            s
        });
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[], |_| relay(pumped)).unwrap();
        (m0, dialer.join().unwrap())
    }

    /// Pump `m`'s links until `n` data frames arrived; their epochs.
    fn pump_data_epochs(m: &TcpMesh, n: usize) -> Vec<u32> {
        let (out, deadline) = (m.sender(), Instant::now() + Duration::from_secs(5));
        let mut got = Vec::new();
        while got.len() < n {
            assert!(
                Instant::now() < deadline,
                "{} of {n} frames arrived",
                got.len()
            );
            out.pump();
            while let Some(ev) = m.try_recv() {
                match ev {
                    MeshEvent::Frame {
                        frame: Frame::Data { epoch, .. },
                        ..
                    } => got.push(epoch),
                    other => panic!("expected Data, got {other:?}"),
                }
            }
        }
        got
    }

    #[test]
    fn pumps_read_a_burst_whole_and_deliver_what_a_short_read_completed() {
        let (m0, peer) = raw_peer(true);
        let frame = |seq: u64, len: usize| Frame::Data {
            seq,
            epoch: seq as u32,
            msg: crate::aggregate::PhysMsg {
                src: warp_core::LpId(1),
                dst: warp_core::LpId(0),
                events: crate::EventBatch::one(warp_core::Event::new(
                    warp_core::event::EventId {
                        sender: warp_core::ObjectId(1),
                        serial: seq,
                    },
                    warp_core::ObjectId(0),
                    VirtualTime::new(1),
                    VirtualTime::new(2),
                    0,
                    vec![seq as u8; len],
                )),
            },
        };
        // A burst of several read buffers' worth, written while proc 0
        // pumps: every frame arrives, once, in order.
        let n = 96u64;
        let mut burst = Vec::new();
        for seq in 0..n {
            frame(seq, 5 << 10).encode_into(&mut burst);
        }
        let buf = lock(&m0.out.links[1].as_ref().unwrap().rx).buf.len();
        assert!(burst.len() > 4 * buf, "the burst fits a read buffer");
        let writer = {
            let peer = peer.try_clone().unwrap();
            thread::spawn(move || (&peer).write_all(&burst).unwrap())
        };
        assert_eq!(
            pump_data_epochs(&m0, n as usize),
            (0..n as u32).collect::<Vec<_>>()
        );
        writer.join().unwrap();

        // A frame and the head of the next: the short read that takes
        // them ends its pump, and delivers the whole frame; the rest of
        // the next one completes it at a later pump.
        let mut two = Vec::new();
        frame(n, 100).encode_into(&mut two);
        let whole = two.len();
        frame(n + 1, 100).encode_into(&mut two);
        (&peer).write_all(&two[..whole + 10]).unwrap();
        assert_eq!(pump_data_epochs(&m0, 1), vec![n as u32]);
        m0.sender().pump();
        assert!(m0.try_recv().is_none(), "a partial frame was delivered");
        (&peer).write_all(&two[whole + 10..]).unwrap();
        assert_eq!(pump_data_epochs(&m0, 1), vec![n as u32 + 1]);
        m0.abort();
    }

    #[test]
    fn invalid_config_is_rejected_before_any_io() {
        let mut cfg = fast_cfg(0, 2);
        cfg.liveness_timeout = cfg.heartbeat_interval; // not strictly greater
        let err = match TcpMesh::establish(cfg, bind_loopback().unwrap(), &[], |_| None) {
            Ok(_) => panic!("invalid config must not establish"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("liveness"), "{err}");
    }

    #[test]
    fn inbound_hook_sees_each_data_frame_once_in_order() {
        // A hooked link is pumped: by its owner's ticks alone, then also
        // by another thread racing them, as a worker's LP threads do.
        for racing in [false, true] {
            hook_delivers_each_data_frame_once_in_order(racing);
        }
    }

    fn hook_delivers_each_data_frame_once_in_order(racing: bool) {
        // The hook consumes data frames and hands every other frame back.
        let (seen_tx, seen) = mpsc::channel::<Frame>();
        let hook: InboundHook = Box::new(move |frame| {
            seen_tx.send(frame.clone()).unwrap();
            (!matches!(frame, Frame::Data { .. })).then_some(frame)
        });
        let (m0, m1) = pair_hooked(fast_cfg(0, 2), fast_cfg(1, 2), None, Some(hook));
        let stop = Arc::new(AtomicBool::new(false));
        let racer = racing.then(|| {
            let (pumps, stop) = (m1.sender(), Arc::clone(&stop));
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    pumps.pump();
                    thread::yield_now();
                }
            })
        });
        for epoch in 0..6 {
            m0.send(1, data(epoch));
        }
        // Idle past a few heartbeat intervals: heartbeats reach neither
        // the hook nor the event queue.
        thread::sleep(Duration::from_millis(150));
        m0.send(1, token(77));
        m0.shutdown();

        // The handed-back token is the first event, so no data frame
        // surfaced; the Bye still closes the link cleanly behind it.
        assert_eq!(expect_frame(&m1), (0, token(77)));
        assert_eq!(expect_down(&m1), (0, true));
        let offered: Vec<Frame> = seen.try_iter().collect();
        let epochs: Vec<u32> = offered
            .iter()
            .filter_map(|f| match f {
                Frame::Data { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(
            epochs,
            vec![0, 1, 2, 3, 4, 5],
            "each data frame once, in order"
        );
        assert_eq!(offered.last(), Some(&token(77)), "offered: {offered:?}");
        assert_eq!(offered.len(), 7, "only data and the token: {offered:?}");
        stop.store(true, Ordering::Relaxed);
        if let Some(racer) = racer {
            racer.join().unwrap();
        }
        m1.shutdown();
    }

    #[test]
    fn partitioned_link_goes_silent_and_trips_liveness() {
        for pumped in [false, true] {
            let mut cfg0 = fast_cfg(0, 2);
            cfg0.faults = Some(FaultPlan::new().partition(0, 1, 0, 0));
            let (m0, m1) = pair_hooked(cfg0, fast_cfg(1, 2), None, relay(pumped));
            m0.send(1, data(0)); // swallowed by the partition
                                 // A pumped receiver notices the silence on its owner's ticks.
            let (peer, clean) = expect_down(&m1);
            assert_eq!(peer, 0);
            assert!(!clean);
            m0.abort();
            m1.abort();
        }
    }

    #[test]
    fn a_blackholed_link_swallows_its_data_and_stays_live() {
        for pumped in [false, true] {
            let mut cfg0 = fast_cfg(0, 2);
            cfg0.faults = Some(FaultPlan::new().blackhole(0, 1, 1, 0));
            let (m0, m1) = pair_hooked(cfg0, fast_cfg(1, 2), None, relay(pumped));
            for epoch in 0..3 {
                m0.send(1, data(epoch));
            }
            assert_eq!(recv_data_epochs(&m1, 1), vec![0]);
            // Past the liveness timeout the heartbeats keep the link up,
            // and GVT frames still cross it — right behind frame 0.
            tick_for(&m1, Duration::from_millis(600));
            m0.send(1, token(7));
            assert_eq!(expect_frame(&m1), (0, token(7)));
            shutdown_pair(m0, m1);
        }
    }

    #[test]
    fn a_data_frame_out_of_sequence_closes_the_link_uncleanly() {
        // Bytes no healthy peer sends: data frame 2 right behind frame 0,
        // then a token that must never surface.
        for pumped in [false, true] {
            let (m0, peer) = raw_peer(pumped);
            let mut bytes = Vec::new();
            data_at(0).encode_into(&mut bytes);
            data_at(2).encode_into(&mut bytes);
            token(5).encode_into(&mut bytes);
            (&peer).write_all(&bytes).unwrap();
            assert_eq!(recv_data_epochs(&m0, 1), vec![0]);
            let (from, clean, detail) = expect_down_detail(&m0);
            assert_eq!((from, clean), (1, false), "{detail}");
            assert!(
                detail.contains("data frame 2 out of sequence (expected 1)"),
                "{detail}"
            );
            assert!(m0.try_recv().is_none(), "a frame behind it surfaced");
            m0.abort();
        }
    }

    #[test]
    fn stale_session_dial_is_skipped_not_fatal() {
        let listener = bind_loopback().unwrap();
        let addr = listener.local_addr().unwrap();
        let mut cfg0 = fast_cfg(0, 2);
        cfg0.session = 1;
        // A zombie from session 0 dials first; the genuine session-1 peer
        // arrives behind it. Establishment must skip the zombie and
        // complete with the real peer.
        let zombie = thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            let stale = Frame::Hello {
                version: PROTO_VERSION,
                proc_id: 1,
                n_procs: 2,
                session: 0,
            };
            (&s).write_all(&stale.encode()).unwrap();
            thread::sleep(Duration::from_millis(500));
        });
        let real = thread::spawn(move || {
            thread::sleep(Duration::from_millis(150));
            let mut cfg1 = fast_cfg(1, 2);
            cfg1.session = 1;
            TcpMesh::establish(cfg1, bind_loopback().unwrap(), &[(0, addr)], |_| None).unwrap()
        });
        let m0 = TcpMesh::establish(cfg0, listener, &[], |_| None).unwrap();
        let m1 = real.join().unwrap();
        m1.send(0, token(5));
        assert_eq!(expect_frame(&m0), (1, token(5)));
        m0.shutdown();
        m1.shutdown();
        zombie.join().unwrap();
    }

    #[test]
    fn a_blocked_accept_wakes_at_the_deadline() {
        // Proc 0 waits for a proc 1 that never dials, then for one that
        // connects and never says a word: each establishment fails as a
        // timeout at its deadline, not before and not long after.
        let cfg = TcpMeshConfig {
            connect_timeout: Duration::from_millis(300),
            ..fast_cfg(0, 2)
        };
        let start = Instant::now();
        let err = TcpMesh::establish(cfg.clone(), bind_loopback().unwrap(), &[], |_| None)
            .err()
            .expect("nobody dialed");
        let took = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("0/1 peers"), "{err}");
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_secs(3),
            "{took:?}"
        );

        let listener = bind_loopback().unwrap();
        let silent = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let start = Instant::now();
        let err = TcpMesh::establish(cfg, listener, &[], |_| None)
            .err()
            .expect("the only dialer said nothing");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(start.elapsed() < Duration::from_secs(3));
        drop(silent);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            .. ProptestConfig::default()
        })]

        /// Whatever sequence numbers data frames carry, the check never
        /// panics: it delivers exactly the in-order prefix, once each,
        /// and closes the link uncleanly at the first frame out of
        /// sequence.
        #[test]
        fn link_rx_delivers_the_in_order_prefix_then_closes_uncleanly(
            prefix in 0u64..32,
            tail in proptest::collection::vec(0u64..40, 0..16),
        ) {
            let seqs: Vec<u64> = (0..prefix).chain(tail).collect();
            let mut rx = LinkRx::new();
            let mut delivered = Vec::new();
            let mut offer = |frame: Frame| {
                let Frame::Data { seq, .. } = frame else {
                    panic!("offered a non-data frame: {frame:?}")
                };
                delivered.push(seq);
                true
            };
            let in_order = seqs.iter().zip(0..).take_while(|(s, i)| *s == i).count();
            for (i, &seq) in seqs.iter().enumerate() {
                let status = rx.on_frame(data_at(seq), &mut offer);
                if i < in_order {
                    prop_assert!(matches!(status, RxStatus::Open), "{status:?}");
                    continue;
                }
                let RxStatus::Closed { clean: false, detail } = status else {
                    panic!("frame {seq} at {i} did not close the link: {status:?}")
                };
                prop_assert!(detail.contains("out of sequence"), "{detail}");
                break;
            }
            prop_assert_eq!(delivered, (0..in_order as u64).collect::<Vec<_>>());
            prop_assert_eq!(rx.expected_seq, in_order as u64);
        }
    }
}
