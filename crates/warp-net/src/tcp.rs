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
//! Reliability: each link writer stamps outgoing [`Frame::Data`] frames
//! with a per-link sequence number; the reader deduplicates, buffers
//! ahead-of-order frames until the gap fills, and declares the link
//! uncleanly down if a gap persists past the liveness timeout (a lost
//! frame cannot be retransmitted — recovery restarts from a checkpoint
//! instead). A [`FaultPlan`] in the config arms deterministic fault
//! injection on the sending side of each link (see [`crate::fault`]).
//!
//! Liveness: each connection runs a writer thread (sends queued frames,
//! injects [`Frame::Heartbeat`] when idle) and a reader thread (decodes
//! frames, tracks time-since-last-byte). A link silent for longer than
//! the liveness timeout is declared half-open and reported as
//! [`MeshEvent::PeerDown`] with `clean: false` — the same event an
//! abrupt EOF (peer killed) produces. Graceful shutdown sends
//! [`Frame::Bye`], flushes, closes the write half, and keeps draining
//! the read half until the peer's own `Bye` arrives, so no in-flight
//! frame is lost to teardown.

use crate::fault::{DataFate, FaultPlan, LinkChaos};
use crate::frame::{Frame, FrameDecoder, PROTO_VERSION};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
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
    /// Idle interval after which the writer injects a heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence threshold after which a link is declared half-open. Also
    /// bounds how long a data-frame sequence gap may persist before the
    /// link is declared lossy (unclean).
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

enum WriterCmd {
    Frame(Frame),
    Shutdown,
}

struct Peer {
    cmd_tx: Sender<WriterCmd>,
    /// Clone of the connection, kept so `abort` can slam it shut.
    stream: TcpStream,
    /// Set when we start shutting down: bounds the reader's final drain
    /// so joining it cannot block on a peer that never says `Bye`.
    closing: Arc<AtomicBool>,
    /// Set by `abort` only: tells the writer to exit at its next wakeup
    /// even if it would otherwise write nothing — a *partitioned* link's
    /// writer is deliberately silent, so a dead socket alone would never
    /// make it return, and joining it would hang.
    aborting: Arc<AtomicBool>,
    writer: JoinHandle<()>,
    reader: JoinHandle<()>,
}

/// A cloneable sending half of the mesh, for threads that only transmit.
#[derive(Clone)]
pub struct MeshSender {
    proc_id: u32,
    /// One command channel per link writer (`None` at our own id).
    cmd_txs: Vec<Option<Sender<WriterCmd>>>,
    loopback: Sender<MeshEvent>,
}

impl MeshSender {
    /// Queue a frame for `to`. Self-sends loop back locally. Sending to
    /// a peer whose link already died is a silent no-op — the owner has
    /// (or will) see the `PeerDown` event and must react there.
    pub fn send(&self, to: u32, frame: Frame) {
        if to == self.proc_id {
            let _ = self.loopback.send(MeshEvent::Frame {
                from: self.proc_id,
                frame,
            });
            return;
        }
        if let Some(Some(tx)) = self.cmd_txs.get(to as usize) {
            let _ = tx.send(WriterCmd::Frame(frame));
        }
    }
}

/// A fully-established process mesh. See the module docs for protocol
/// details.
pub struct TcpMesh {
    cfg: TcpMeshConfig,
    peers: Vec<Option<Peer>>,
    event_tx: Sender<MeshEvent>,
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
        MeshSender {
            proc_id: self.cfg.proc_id,
            cmd_txs: self
                .peers
                .iter()
                .map(|p| p.as_ref().map(|p| p.cmd_tx.clone()))
                .collect(),
            loopback: self.event_tx.clone(),
        }
    }

    /// Queue a frame for `to` (see [`MeshSender::send`]).
    pub fn send(&self, to: u32, frame: Frame) {
        if to == self.cfg.proc_id {
            let _ = self.event_tx.send(MeshEvent::Frame {
                from: self.cfg.proc_id,
                frame,
            });
            return;
        }
        if let Some(Some(peer)) = self.peers.get(to as usize) {
            let _ = peer.cmd_tx.send(WriterCmd::Frame(frame));
        }
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

    /// Establish the full mesh. `listener` must already be bound;
    /// `peer_addrs` must contain an address for every peer with an id
    /// lower than `cfg.proc_id` (higher ids dial us and extra entries
    /// are ignored). Blocks until every link is up and handshaken, or
    /// fails within `cfg.connect_timeout`.
    pub fn establish(
        cfg: TcpMeshConfig,
        listener: TcpListener,
        peer_addrs: &[(u32, SocketAddr)],
    ) -> io::Result<TcpMesh> {
        let links = establish_links(&cfg, listener, peer_addrs)?;

        // All links are up: spawn the per-connection reader/writer pairs.
        let n = cfg.n_procs as usize;
        let (event_tx, event_rx) = mpsc::channel();
        let mut peers: Vec<Option<Peer>> = (0..n).map(|_| None).collect();
        for (peer_id, slot) in links.into_iter().enumerate() {
            let Some((stream, dec)) = slot else { continue };
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let wr = stream.try_clone()?;
            let hb = cfg.heartbeat_interval;
            let chaos = cfg
                .faults
                .as_ref()
                .and_then(|p| p.link(cfg.proc_id, peer_id as u32, cfg.session));
            let ctl_chaos = cfg
                .faults
                .as_ref()
                .and_then(|p| p.link_control(cfg.proc_id, peer_id as u32, cfg.session));
            let aborting = Arc::new(AtomicBool::new(false));
            let aborting_w = Arc::clone(&aborting);
            let writer = thread::Builder::new()
                .name(format!("mesh-w{}-{peer_id}", cfg.proc_id))
                .spawn(move || writer_loop(wr, cmd_rx, hb, chaos, ctl_chaos, aborting_w))?;
            let rd = stream.try_clone()?;
            let tx = event_tx.clone();
            let live = cfg.liveness_timeout;
            let pid = peer_id as u32;
            let closing = Arc::new(AtomicBool::new(false));
            let closing_r = Arc::clone(&closing);
            let reader = thread::Builder::new()
                .name(format!("mesh-r{}-{peer_id}", cfg.proc_id))
                .spawn(move || reader_loop(rd, dec, tx, pid, live, closing_r))?;
            peers[peer_id] = Some(Peer {
                cmd_tx,
                stream,
                closing,
                aborting,
                writer,
                reader,
            });
        }

        Ok(TcpMesh {
            cfg,
            peers,
            event_tx,
            event_rx,
        })
    }

    /// Graceful shutdown: announce `Bye` on every link, flush, close
    /// the write halves, then drain each read half until the peer's own
    /// `Bye` — or for at most the liveness timeout if the peer keeps the
    /// link open (it may not be shutting down yet). Frames already
    /// queued are sent before the `Bye`.
    pub fn shutdown(mut self) {
        for peer in self.peers.iter().flatten() {
            peer.closing.store(true, Ordering::Relaxed);
            let _ = peer.cmd_tx.send(WriterCmd::Shutdown);
        }
        for peer in self.peers.iter_mut().filter_map(Option::take) {
            let _ = peer.writer.join();
            let _ = peer.reader.join();
        }
    }

    /// Abrupt teardown for tests and fatal-error paths: slam every
    /// socket shut with no `Bye`. Peers observe an unclean close.
    pub fn abort(mut self) {
        for peer in self.peers.iter().flatten() {
            peer.closing.store(true, Ordering::Relaxed);
            peer.aborting.store(true, Ordering::Relaxed);
            let _ = peer.stream.shutdown(std::net::Shutdown::Both);
        }
        for peer in self.peers.iter_mut().filter_map(Option::take) {
            drop(peer.cmd_tx);
            let _ = peer.writer.join();
            let _ = peer.reader.join();
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

    // Accept every higher-id peer on the listener meanwhile.
    let mut accepted = 0usize;
    let expect_accepts = n - cfg.proc_id as usize - 1;
    listener.set_nonblocking(true)?;
    while accepted < expect_accepts {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "proc {}: only {accepted}/{expect_accepts} peers connected in time",
                    cfg.proc_id
                ),
            ));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                // Bound each accepted handshake separately: a zombie
                // connection from a dead session that never writes
                // must not pin the whole establishment.
                let hs_deadline =
                    deadline.min(Instant::now() + cfg.liveness_timeout.max(ACCEPT_HS_FLOOR));
                let (id, session, dec) = match handshake(&stream, cfg, hs_deadline) {
                    Ok(hs) => hs,
                    // Version/topology mismatches and garbage are a
                    // fatal build-skew signal...
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                    // ...but a connection that stalls or dies mid-
                    // handshake is just a stale dialer: keep accepting.
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
                if links[id as usize].is_some() {
                    return Err(proto_err(format!("proc {id} connected twice")));
                }
                links[id as usize] = Some((stream, dec));
                accepted += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
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

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Deterministic "equal jitter" dial backoff: attempt `n` sleeps
/// somewhere in `[exp/2, exp]`, where `exp = start·2ⁿ` capped at `max`.
/// The point within the band is a pure hash of `(seed, attempt)`, so a
/// given dialer backs off identically on every run (reproducible
/// tests), while distinct dialers — distinct seeds — spread out across
/// the band instead of retrying in lock-step. That spread is what keeps
/// a mass rejoin after a coordinator restart from thundering-herding
/// the freshly re-bound admission listener.
pub fn jittered_backoff(start: Duration, max: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = start.saturating_mul(1u32 << attempt.min(16)).min(max);
    let half = exp / 2;
    let span = exp.saturating_sub(half).as_nanos() as u64;
    let jitter = if span == 0 {
        0
    } else {
        crate::fault::splitmix(seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % (span + 1)
    };
    half + Duration::from_nanos(jitter)
}

/// Per-dialer jitter seed: decorrelates processes retrying against the
/// same listener without any shared state (deterministic per identity).
fn dial_seed(proc_id: u32, addr: &SocketAddr) -> u64 {
    crate::fault::splitmix(((proc_id as u64) << 32) ^ ((addr.port() as u64) << 8) ^ 0xD1A1)
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

/// Per-link outbound state: data-frame sequence stamping, fault
/// injection, and the buffer of frames a `Delay` rule is holding back.
struct LinkTx {
    next_seq: u64,
    chaos: Option<LinkChaos>,
    /// Control-plane (`Token`/`GvtNews`) chaos: its own rule stream with
    /// its own ordinal counter, so a control partition silences the GVT
    /// ring while data and heartbeats keep flowing.
    ctl_chaos: Option<LinkChaos>,
    ctl_next_seq: u64,
    /// A control-scope `Partition` fired: GVT frames vanish, all else
    /// flows — the wedged-but-connected failure mode.
    ctl_partitioned: bool,
    /// Held-back (delayed) encoded frames, keyed by the sequence number
    /// whose transmission releases them.
    held: Vec<(u64, Vec<u8>)>,
    /// A `Partition` rule fired: the link is silent for the session.
    partitioned: bool,
}

impl LinkTx {
    fn new(chaos: Option<LinkChaos>, ctl_chaos: Option<LinkChaos>) -> Self {
        LinkTx {
            next_seq: 0,
            chaos,
            ctl_chaos,
            ctl_next_seq: 0,
            ctl_partitioned: false,
            held: Vec::new(),
            partitioned: false,
        }
    }

    /// Stamp and encode one outgoing frame into `out`, applying any
    /// fault rules. Data frames consume a sequence number even when a
    /// fault swallows them — that is exactly what makes the loss visible
    /// to the receiver as a gap.
    fn stage(&mut self, mut frame: Frame, out: &mut Vec<u8>) {
        if self.partitioned {
            return;
        }
        if matches!(frame, Frame::Token { .. } | Frame::GvtNews { .. }) {
            if self.ctl_partitioned {
                return;
            }
            let Some(c) = &self.ctl_chaos else {
                frame.encode_into(out);
                return;
            };
            let s = self.ctl_next_seq;
            self.ctl_next_seq += 1;
            match c.fate(s) {
                DataFate::Drop => {}
                DataFate::Partition => self.ctl_partitioned = true,
                DataFate::Crash => std::process::abort(),
                // Duplicate/Hold degrade to delivery: a duplicated
                // Mattern token or a reordered GvtNews corrupts the GVT
                // computation itself (see the fault module docs).
                DataFate::Deliver | DataFate::Duplicate | DataFate::Hold { .. } => {
                    frame.encode_into(out)
                }
            }
            return;
        }
        let Frame::Data { seq: seq_slot, .. } = &mut frame else {
            frame.encode_into(out);
            return;
        };
        let s = self.next_seq;
        self.next_seq += 1;
        *seq_slot = s;
        let fate = self.chaos.as_ref().map_or(DataFate::Deliver, |c| c.fate(s));
        match fate {
            DataFate::Deliver => frame.encode_into(out),
            DataFate::Duplicate => {
                frame.encode_into(out);
                frame.encode_into(out);
            }
            DataFate::Drop => {}
            DataFate::Hold { release_after } => {
                let mut bytes = Vec::new();
                frame.encode_into(&mut bytes);
                self.held.push((release_after, bytes));
            }
            DataFate::Partition => {
                // Frames staged earlier in this batch still go out (they
                // precede the partition point); everything from here on
                // is swallowed, heartbeats included.
                self.partitioned = true;
                self.held.clear();
                return;
            }
            DataFate::Crash => std::process::abort(),
        }
        // Frames the current one has now overtaken go out (reordered).
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= s {
                let (_, bytes) = self.held.remove(i);
                out.extend_from_slice(&bytes);
            } else {
                i += 1;
            }
        }
    }

    /// Release everything still held — on idle and before `Bye`, so a
    /// delayed frame is never lost to quiescence or shutdown.
    fn flush_held(&mut self, out: &mut Vec<u8>) {
        if self.partitioned {
            return;
        }
        self.held.sort_by_key(|(release, _)| *release);
        for (_, bytes) in self.held.drain(..) {
            out.extend_from_slice(&bytes);
        }
    }
}

fn writer_loop(
    stream: TcpStream,
    cmd_rx: Receiver<WriterCmd>,
    heartbeat: Duration,
    chaos: Option<LinkChaos>,
    ctl_chaos: Option<LinkChaos>,
    aborting: Arc<AtomicBool>,
) {
    let mut w = &stream;
    let mut out = Vec::with_capacity(4096);
    let mut tx = LinkTx::new(chaos, ctl_chaos);
    let say_bye = |mut w: &TcpStream| {
        let _ = w.write_all(&Frame::Bye.encode());
        let _ = w.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);
    };
    loop {
        match cmd_rx.recv_timeout(heartbeat) {
            Ok(WriterCmd::Frame(frame)) => {
                out.clear();
                tx.stage(frame, &mut out);
                // Opportunistically coalesce whatever else is queued —
                // without losing a Shutdown hiding behind the frames.
                let mut shutdown_after = false;
                loop {
                    match cmd_rx.try_recv() {
                        Ok(WriterCmd::Frame(f)) => {
                            tx.stage(f, &mut out);
                            if out.len() > 1 << 20 {
                                break;
                            }
                        }
                        Ok(WriterCmd::Shutdown) => {
                            shutdown_after = true;
                            break;
                        }
                        Err(_) => break,
                    }
                }
                if shutdown_after {
                    tx.flush_held(&mut out);
                }
                if !out.is_empty() && w.write_all(&out).is_err() {
                    return; // reader reports the dead link
                }
                if shutdown_after {
                    if !tx.partitioned {
                        say_bye(w);
                    }
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // An abort slams the socket, but only a *write* would
                // notice — and a partitioned link never writes. The flag
                // is the sole way its writer learns the mesh is gone.
                if aborting.load(Ordering::Relaxed) {
                    return;
                }
                if tx.partitioned {
                    continue; // a partitioned link heartbeats nothing
                }
                out.clear();
                tx.flush_held(&mut out);
                out.extend_from_slice(&Frame::Heartbeat.encode());
                if w.write_all(&out).is_err() {
                    return;
                }
            }
            Ok(WriterCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                if !tx.partitioned {
                    out.clear();
                    tx.flush_held(&mut out);
                    if !out.is_empty() && w.write_all(&out).is_err() {
                        return;
                    }
                    say_bye(w);
                }
                return;
            }
        }
    }
}

/// What [`LinkRx::on_frame`] concluded about one decoded frame.
#[derive(Debug)]
enum RxStatus {
    /// Keep reading.
    Open,
    /// The peer ended its stream with `Bye`; unclean when a sequence
    /// gap never filled (those frames are lost for good).
    Closed { clean: bool, detail: String },
    /// The mesh owner dropped its receiver; stop reading silently.
    OwnerGone,
}

/// Per-link inbound state: data-frame deduplication, reorder buffering
/// and gap tracking.
struct LinkRx {
    /// The next expected data-frame sequence number.
    expected_seq: u64,
    /// Frames that arrived ahead of a gap, keyed by sequence.
    ahead: BTreeMap<u64, Frame>,
    /// When the oldest unfilled gap opened.
    gap_since: Option<Instant>,
}

impl LinkRx {
    fn new() -> Self {
        LinkRx {
            expected_seq: 0,
            ahead: BTreeMap::new(),
            gap_since: None,
        }
    }

    /// Feed one decoded frame through the sequencing machinery,
    /// emitting deliverable frames on `events`.
    fn on_frame(&mut self, frame: Frame, peer: u32, events: &Sender<MeshEvent>) -> RxStatus {
        match frame {
            Frame::Heartbeat => RxStatus::Open,
            Frame::Bye => {
                if self.ahead.is_empty() {
                    RxStatus::Closed {
                        clean: true,
                        detail: "peer said Bye".into(),
                    }
                } else {
                    // The peer finished sending while we still wait for
                    // a gap to fill: those frames are lost.
                    RxStatus::Closed {
                        clean: false,
                        detail: format!(
                            "peer said Bye but data frame {} never arrived \
                             ({} buffered beyond the gap)",
                            self.expected_seq,
                            self.ahead.len()
                        ),
                    }
                }
            }
            Frame::Data { seq, .. } => {
                if seq < self.expected_seq {
                    // Duplicate of an already-delivered frame.
                    return RxStatus::Open;
                }
                if seq > self.expected_seq {
                    // Ahead of a gap: buffer until the gap fills
                    // (insert dedups ahead-of-order duplicates too).
                    self.ahead.insert(seq, frame);
                    self.gap_since.get_or_insert_with(Instant::now);
                    return RxStatus::Open;
                }
                if events.send(MeshEvent::Frame { from: peer, frame }).is_err() {
                    return RxStatus::OwnerGone;
                }
                self.expected_seq += 1;
                while let Some(frame) = self.ahead.remove(&self.expected_seq) {
                    if events.send(MeshEvent::Frame { from: peer, frame }).is_err() {
                        return RxStatus::OwnerGone;
                    }
                    self.expected_seq += 1;
                }
                self.gap_since = if self.ahead.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                RxStatus::Open
            }
            frame => {
                if events.send(MeshEvent::Frame { from: peer, frame }).is_err() {
                    return RxStatus::OwnerGone;
                }
                RxStatus::Open
            }
        }
    }

    /// A gap that outlives the liveness budget means the frame was
    /// lost, not reordered — there is no retransmission, so the link is
    /// broken for good. Returns the lost sequence number.
    fn gap_expired(&self, liveness: Duration) -> Option<u64> {
        self.gap_since
            .and_then(|t| (t.elapsed() > liveness).then_some(self.expected_seq))
    }
}

fn reader_loop(
    stream: TcpStream,
    mut dec: FrameDecoder,
    events: Sender<MeshEvent>,
    peer: u32,
    liveness: Duration,
    closing: Arc<AtomicBool>,
) {
    let down = |clean: bool, detail: String| {
        let _ = events.send(MeshEvent::PeerDown {
            peer,
            clean,
            detail,
        });
    };
    // Poll in slices so silence is noticed within a fraction of the
    // liveness budget even though `read` itself blocks.
    let poll = (liveness / 4).max(Duration::from_millis(10));
    if stream.set_read_timeout(Some(poll)).is_err() {
        down(false, "could not arm the read timeout".into());
        return;
    }
    let mut last_byte = Instant::now();
    let mut buf = [0u8; 64 * 1024];
    let mut closing_since: Option<Instant> = None;
    let mut rx = LinkRx::new();
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
        // Drain everything already buffered (handshake residue first).
        loop {
            match dec.next() {
                Ok(Some(frame)) => match rx.on_frame(frame, peer, &events) {
                    RxStatus::Open => {}
                    RxStatus::Closed { clean, detail } => {
                        down(clean, detail);
                        return;
                    }
                    RxStatus::OwnerGone => return,
                },
                Ok(None) => break,
                Err(e) => {
                    down(false, format!("stream corrupt: {e}"));
                    return;
                }
            }
        }
        if let Some(lost) = rx.gap_expired(liveness) {
            down(
                false,
                format!("data frame {lost} lost (gap persisted past {liveness:?})"),
            );
            return;
        }
        match (&stream).read(&mut buf) {
            Ok(0) => {
                down(false, "connection closed without Bye".into());
                return;
            }
            Ok(n) => {
                last_byte = Instant::now();
                dec.push(&buf[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_byte.elapsed() > liveness {
                    down(false, format!("half-open link: silent for {liveness:?}"));
                    return;
                }
            }
            Err(e) => {
                down(false, format!("read failed: {e}"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::gvt::GvtToken;
    use warp_core::VirtualTime;

    use crate::fault::{FaultKind, Selector};

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
        let l0 = bind_loopback().unwrap();
        let l1 = bind_loopback().unwrap();
        let a0 = l0.local_addr().unwrap();
        let t = thread::spawn(move || TcpMesh::establish(cfg1, l1, &[(0, a0)]).unwrap());
        let m0 = TcpMesh::establish(cfg0, l0, &[]).unwrap();
        (m0, t.join().unwrap())
    }

    /// An empty-payload data frame; `epoch` doubles as the test's marker.
    fn data(epoch: u32) -> Frame {
        Frame::Data {
            seq: 0, // stamped by the link writer
            epoch,
            msg: crate::aggregate::PhysMsg {
                src: warp_core::LpId(0),
                dst: warp_core::LpId(1),
                events: vec![],
            },
        }
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

    fn expect_frame(m: &TcpMesh) -> (u32, Frame) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match m.recv_timeout(Duration::from_millis(100)) {
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(MeshEvent::PeerDown { peer, clean, .. }) =
                m.recv_timeout(Duration::from_millis(100))
            {
                return (peer, clean);
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
        let ls: Vec<_> = (0..3).map(|_| bind_loopback().unwrap()).collect();
        let addrs: Vec<_> = ls.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut handles = Vec::new();
        for (i, l) in ls.into_iter().enumerate().rev() {
            let peers: Vec<_> = (0..i as u32).map(|j| (j, addrs[j as usize])).collect();
            handles.push(thread::spawn(move || {
                TcpMesh::establish(fast_cfg(i as u32, 3), l, &peers).unwrap()
            }));
        }
        let mut meshes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        meshes.sort_by_key(|m| m.proc_id());
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
            TcpMesh::establish(fast_cfg(1, 2), bind_loopback().unwrap(), &[(0, addr)])
        });
        thread::sleep(Duration::from_millis(300));
        let listener = TcpListener::bind(addr).expect("ephemeral port rebind");
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[]).unwrap();
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
        let (m0, m1) = pair();
        // Well past the liveness timeout with no application traffic.
        thread::sleep(Duration::from_millis(900));
        assert!(m0.try_recv().is_none(), "heartbeats must not surface");
        m0.send(1, token(4));
        assert_eq!(expect_frame(&m1), (0, token(4)));
        m0.shutdown();
        m1.shutdown();
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
        let err = match TcpMesh::establish(fast_cfg(0, 2), listener, &[]) {
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
        let m0 = TcpMesh::establish(fast_cfg(0, 2), listener, &[]).unwrap();
        assert_eq!(expect_frame(&m0), (1, token(31)));
        assert_eq!(expect_frame(&m0), (1, token(32)));
        assert_eq!(expect_down(&m0), (1, true));
        m0.shutdown();
        rogue.join().unwrap();
    }

    #[test]
    fn invalid_config_is_rejected_before_any_io() {
        let mut cfg = fast_cfg(0, 2);
        cfg.liveness_timeout = cfg.heartbeat_interval; // not strictly greater
        let err = match TcpMesh::establish(cfg, bind_loopback().unwrap(), &[]) {
            Ok(_) => panic!("invalid config must not establish"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("liveness"), "{err}");
    }

    #[test]
    fn duplicated_data_frames_are_deduplicated_in_order() {
        let mut cfg0 = fast_cfg(0, 2);
        cfg0.faults = Some(FaultPlan::new().with(
            0,
            1,
            FaultKind::Duplicate(Selector::Every { every: 1, phase: 0 }),
        ));
        let (m0, m1) = pair_with(cfg0, fast_cfg(1, 2));
        for epoch in 0..4 {
            m0.send(1, data(epoch));
        }
        m0.send(1, token(77));
        assert_eq!(recv_data_epochs(&m1, 4), vec![0, 1, 2, 3]);
        // The token right behind the duplicates proves nothing extra was
        // delivered in between.
        assert_eq!(expect_frame(&m1), (0, token(77)));
        m0.shutdown();
        m1.shutdown();
    }

    #[test]
    fn delayed_data_frames_are_reordered_back() {
        let mut cfg0 = fast_cfg(0, 2);
        cfg0.faults = Some(FaultPlan::new().with(
            0,
            1,
            FaultKind::Delay {
                sel: Selector::At(0),
                hold: 2,
            },
        ));
        let (m0, m1) = pair_with(cfg0, fast_cfg(1, 2));
        // Frame 0 is held until frame 2 ships: wire order 1,2,0,3.
        for epoch in 0..4 {
            m0.send(1, data(epoch));
        }
        assert_eq!(recv_data_epochs(&m1, 4), vec![0, 1, 2, 3]);
        m0.shutdown();
        m1.shutdown();
    }

    #[test]
    fn dropped_data_frame_surfaces_as_unclean_loss() {
        let mut cfg0 = fast_cfg(0, 2);
        cfg0.faults = Some(FaultPlan::new().with(0, 1, FaultKind::Drop(Selector::At(1))));
        let (m0, m1) = pair_with(cfg0, fast_cfg(1, 2));
        for epoch in 0..3 {
            m0.send(1, data(epoch));
        }
        assert_eq!(recv_data_epochs(&m1, 1), vec![0]);
        let (peer, clean) = expect_down(&m1);
        assert_eq!(peer, 0);
        assert!(!clean, "a lost frame is an unclean link failure");
        m0.abort();
        m1.abort();
    }

    #[test]
    fn partitioned_link_goes_silent_and_trips_liveness() {
        let mut cfg0 = fast_cfg(0, 2);
        cfg0.faults = Some(FaultPlan::new().partition(0, 1, 0, 0));
        let (m0, m1) = pair_with(cfg0, fast_cfg(1, 2));
        m0.send(1, data(0)); // swallowed by the partition
        let (peer, clean) = expect_down(&m1);
        assert_eq!(peer, 0);
        assert!(!clean);
        m0.abort();
        m1.abort();
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
            TcpMesh::establish(cfg1, bind_loopback().unwrap(), &[(0, addr)]).unwrap()
        });
        let m0 = TcpMesh::establish(cfg0, listener, &[]).unwrap();
        let m1 = real.join().unwrap();
        m1.send(0, token(5));
        assert_eq!(expect_frame(&m0), (1, token(5)));
        m0.shutdown();
        m1.shutdown();
        zombie.join().unwrap();
    }
}
