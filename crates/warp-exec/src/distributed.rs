//! The distributed executive: the kernel across OS *processes*.
//!
//! Topology: one **coordinator** (mesh process 0, no LPs — pure control
//! plane) plus `n_workers` **worker** processes, each owning a set of
//! the simulation's LPs (contiguous blocks at start; arbitrary after a
//! migration — the explicit [`Assignment`] map travels in
//! every [`SessionLine`]). Every process joins a full
//! TCP mesh ([`warp_net::tcp`]); inside a worker, each of its LPs runs
//! the *same* `lp_thread` loop over the *same* SPSC lane mesh
//! ([`warp_net::spsc`]) the threaded executive uses. A `WorkerPort`
//! puts packets for co-resident LPs on their lanes and sends the rest
//! as [`Frame`]s over the TCP mesh, posted by the LP thread itself
//! (written on it unless another thread is writing that link, never
//! waiting for one). Inbound, each link to a peer worker is pumped: no
//! thread of its own reads it; the LP threads read it between events
//! (and the session thread on its idle ticks), and the link's hook, on
//! a lane endpoint of its own, puts that peer's data, token and GVT
//! frames straight onto the destination LP's lane. A worker session's
//! threads are its LP threads plus the coordinator link's reader; the
//! session thread holds one more lane endpoint and sees only control
//! frames and the LP threads' exit wakes. The Mattern
//! GVT token circulates in global LP-id order exactly as in the threaded
//! executive — the token ring simply spans process boundaries now — and
//! GVT = ∞ shuts every LP down wherever it lives.
//!
//! Bootstrap protocol (coordinator side in [`run_coordinator`], worker
//! side in [`join_main`]):
//!
//! 1. The coordinator opens its admission point, a loopback listener,
//!    and spawns each worker binary as `--join <admission address>`,
//!    with no stdin or stdout.
//! 2. Each worker dials the admission point and presents a
//!    [`Frame::Join`] naming its OS pid, which pairs it with the slot
//!    the coordinator spawned it for; that socket is its control socket
//!    for life. It binds its own ephemeral listener and announces the
//!    address as a [`Frame::Control`] message.
//! 3. The coordinator sends each worker two control messages, back to
//!    back: a [`WorkerInit`] with what is fixed for the process's life
//!    (its proc id, the tuning, the policies, and an *opaque* model
//!    description — `warp-exec` never learns how to build models; the
//!    worker binary supplies a closure that turns the model JSON into a
//!    [`SimulationSpec`]), then the first [`SessionLine`]: the session
//!    epoch, every peer's address and the LP→worker owner map. Every
//!    later session starts with a listen announcement and a
//!    [`SessionLine`] alone.
//! 4. Everyone establishes the TCP mesh (workers dial lower ids, accept
//!    higher ones) and the simulation runs.
//! 5. Each worker serializes its per-LP summaries into a
//!    [`Frame::Report`], then closes with `Bye`. The coordinator merges
//!    the reports into one [`RunReport`].
//!
//! # Failure model and recovery
//!
//! Runs are organized in **sessions**, numbered by the mesh epoch in
//! every handshake. Session 0 is the fresh start; each recovery bumps
//! the epoch, so any stale frame from a pre-crash connection is refused
//! at handshake time and can never leak into the restarted run.
//!
//! While a session runs (and [`RecoveryPolicy::enabled`]), the
//! coordinator paces a **checkpoint protocol** off the `Frame::Progress`
//! notifications the controller worker emits at each GVT round. It
//! decides *when*: it sends `SnapshotReq` to the worker hosting the
//! controller LP, which tags its next completed round, and that round's
//! GVT `g` is the horizon. Everything received below `g` is, by the GVT
//! invariant, processed everywhere and beyond rollback. Every LP that
//! applies the tagged `GvtNews` ships its *image* of `g` — the newest
//! state snapshot below `g` with the ≤ χ inputs after it, the committed
//! sends crossing `g`, and the digest and committed count at `g` (the
//! `snapshot` codec, built on [`warp_core::image`]) — and only then
//! fossil-collects. The session thread assembles its LPs' images into the
//! worker's image set, and once **all** workers have answered, naming one
//! horizon, the coordinator replaces every LP's image with the new one.
//! Nothing accumulates: the images follow the model's size, not the
//! run's length, and a worker keeps nothing for recovery once its image
//! has shipped. Fossil collection runs to GVT throughout, as it does
//! everywhere else.
//!
//! With [`RecoveryPolicy::store_dir`] set, the job, the coordinator's
//! control-plane state and the latest image set are also written to one
//! CRC-checked **segment file**, replaced whole before every session and
//! at each committed barrier — a durable shadow of the run (format in
//! `docs/recovery-store.md`, images read back via
//! [`load_checkpoint_segment`]).
//!
//! When a peer is lost *uncleanly* (crash, half-open link past the
//! liveness timeout, or a data frame out of sequence), every survivor
//! aborts its LP threads, re-binds a fresh listener, announces it on its
//! control socket, and waits there; the coordinator reaps dead
//! workers, respawns them, distributes the new peer list (a
//! [`SessionLine`] to everyone, after a [`WorkerInit`] to respawned
//! processes), re-establishes the mesh under the bumped epoch, and
//! **streams** every worker the images of the LPs it owns as an ordered
//! [`Frame::ResumeChunk`] sequence — chunks of 1/64 of the transport's
//! frame cap ([`NetTuning::max_frame_bytes`]; 1 MiB by default),
//! reassembled by the worker, so a resume payload is never bounded by the
//! cap. Every LP then restores the same way,
//! whatever happened to the process that held it: its LP thread builds
//! the LP from the spec and loads its image (`LpRuntime::restore`), which
//! coasts through at most χ inputs and sends the frontier again. The
//! session thread keeps the peer links alive meanwhile. The restored
//! run must commit exactly the history the sequential golden model
//! commits; [`ResumeStats`] in the final report counts the images loaded
//! and the image bytes shipped. Recovery is bounded by
//! [`RecoveryPolicy::max_recoveries`]; past that (or with recovery
//! disabled) a lost worker is a clean [`DistError::Worker`], never a
//! hang.
//!
//! Two observational channels ride on the same mesh. Workers with
//! telemetry enabled piggyback periodic [`Frame::Telemetry`] batches
//! (drained at GVT rounds) that the coordinator merges into the final
//! [`RunReport`]; loss or reordering of these frames never affects
//! correctness. And a **GVT-stall watchdog**
//! ([`RecoveryPolicy::stall_budget_ms`]) declares a session livelocked
//! when the committed horizon stops advancing — catching wedged-but-
//! connected clusters (e.g. a silenced token ring) that per-link
//! liveness timeouts cannot see — and routes them through the same
//! recovery path as a crash.
//!
//! # The cluster loop (LP migration and elastic membership)
//!
//! With a [`ClusterPolicy`] that is [armed](ClusterPolicy::armed) — a
//! move budget, or a worker range wider than one count — (requires
//! recovery), workers also stream one [`Frame::LoadReport`] per LP at
//! every GVT round. The coordinator buckets a complete round of reports
//! and feeds it to one [`ClusterController`] per session — the paper's
//! `<O,I,S,T,P>` loop lifted to the cluster, where the sampled output `O`
//! is the spread of per-worker LVT leads and the input `I` is the
//! LP↔worker assignment, its worker count included. When the controller
//! (after its dead zone and patience) proposes a [`Plan`], the plan's
//! change in worker count is its kind: 0 moves an LP between the current
//! workers, +1 admits a worker, −1 retires the highest-numbered one.
//! Every kind rides the recovery machinery wholesale: the coordinator
//! drives one extra checkpoint barrier so the images cover everything
//! committed, then ends the session on purpose (never charged to the
//! recovery budget). An image is per LP, so moving one is a matter of
//! addressing; and because a restore commits exactly what the image
//! holds, the committed trace digest is unchanged by any plan. A
//! migration is recorded as a [`MigrationRecord`] and as
//! `Param::Assignment` control events, a scale as a [`ScaleRecord`] and
//! a `Param::ClusterSize` event. With the job's telemetry on, every
//! round the controller saw lands in the report's telemetry as a
//! [`LoadRound`], with the plan taken on it: the stream a replay of the
//! loop feeds back.
//!
//! Every session that ends short of the finish — a migration, a scale
//! either way, a probation fallback, a crash recovery — ends one way:
//! the coordinator drops the mesh, and the workers regroup as after a
//! loss. Then comes one regroup step: the membership change (the only
//! part that differs by kind), the next assignment, one record and its
//! control events, and a bumped session.
//!
//! *Scale-out* admits a fresh worker into the successor session: the
//! coordinator either spawns another copy of the worker binary
//! ([`ClusterPolicy::spawn`]) or adopts a process started by hand that
//! dialed the admission point with a [`Frame::Join`] of its own (the
//! `--join` flag of a worker binary; the point's address is published
//! via [`DistConfig::admit_file`]). The newcomer is seeded
//! exactly like a respawned worker — the images of the LPs the grown
//! [`Assignment`] gives it, streamed as `ResumeChunk`s —
//! and runs one **probation** session: if the very next session is lost
//! blaming the newcomer, the coordinator *evicts* it and falls back to
//! the pre-scale membership (recorded as a `"fallback"`
//! [`ScaleRecord`]) rather than burning recoveries on a bad admission.
//!
//! *Scale-in* retires the highest-numbered worker. Leaving is a
//! membership event, not a data-plane exchange: the session ends at the
//! barrier like any other, and at the regroup the retiree, back on its
//! control socket like everyone else, is told to leave there
//! (`Control::Retire`) and **exits 0**. Its LPs restore on the survivors
//! from their images.
//! Every transition lands in the report as a [`ScaleRecord`] and in the
//! telemetry trajectory as a `Param::ClusterSize` control event, and
//! because a restore commits exactly what the images hold, the committed
//! trace digest is unchanged by any scale.
//!
//! Orphan hygiene: a worker whose coordinator dies sees either its mesh
//! link drop or its control socket close and exits 3 on its own, so
//! workers never outlive the coordinator by more than the liveness
//! timeout plus a bounded wait for recovery instructions
//! (`max(10 × liveness, 30 s)`). A restarted coordinator
//! ([`resume_coordinator`], the `--resume` flag of `warp-cluster`) loads
//! the segment file from `store_dir`, spawns every worker slot afresh and
//! continues the run under a bumped session; each LP restores from its
//! image exactly as after any other recovery.

use crate::report::{LpSummary, MigrationRecord, ResumeStats, RunReport, ScaleRecord};
use crate::snapshot::{
    decode_image_set, encode_image_set,
    store::{load_segment, segment_path, Segment, SegmentStore},
    SnapshotError,
};
use crate::spec::SimulationSpec;
use crate::threaded::{lp_thread, LpOutcome, LpPort, LpSeed, Packet, WriteRule, BATCH};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};
use warp_control::cluster::{
    Assignment, ClusterController, ClusterPolicy, LoadRound, LpLoad, Move, Plan,
};
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::VirtualTime;
use warp_net::poll::PollFd;
use warp_net::tcp::{bind_loopback, InboundHook, MeshEvent, MeshSender, TcpMesh, TcpMeshConfig};
use warp_net::{lane_mesh, FaultPlan, Frame, FrameDecoder, LaneEndpoint, PROTO_VERSION};
use warp_telemetry::{ControlEvent, Param, TelemetryReport};

/// Transport tuning for distributed runs: failure detection and the
/// frame cap. Every worker receives the same values in its
/// [`WorkerInit`], so failure detection fires consistently across the
/// cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetTuning {
    /// Longest a live link stays silent before a heartbeat goes out
    /// (milliseconds).
    pub heartbeat_ms: u64,
    /// Silence threshold after which a link is declared half-open
    /// (milliseconds).
    pub liveness_ms: u64,
    /// Frame-size cap (bytes) every process's decoder enforces; bounds
    /// worst-case memory per link, a worker's checkpoint image set (one
    /// frame) and the chunks of a streamed resume (1/64 of it, at most
    /// 1 MiB). 0 = the protocol default
    /// ([`warp_net::frame::MAX_FRAME_BYTES`]).
    #[serde(default)]
    pub max_frame_bytes: u64,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            heartbeat_ms: 250,
            liveness_ms: 3000,
            max_frame_bytes: 0,
        }
    }
}

impl NetTuning {
    /// Check the knobs for internal consistency (mirrors
    /// [`TcpMeshConfig::validate`], but fails before any process is
    /// spawned).
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_ms == 0 {
            return Err("heartbeat_ms must be positive".into());
        }
        if self.liveness_ms <= self.heartbeat_ms {
            return Err(format!(
                "liveness_ms ({}) must exceed heartbeat_ms ({}) or every idle link is declared dead",
                self.liveness_ms, self.heartbeat_ms
            ));
        }
        if self.max_frame_bytes != 0 && self.max_frame_bytes < 1024 {
            return Err(format!(
                "max_frame_bytes ({}) below the 1024-byte floor: even a handshake would not fit",
                self.max_frame_bytes
            ));
        }
        Ok(())
    }

    /// The effective frame cap in bytes (protocol default when unset).
    pub fn frame_cap(&self) -> usize {
        if self.max_frame_bytes == 0 {
            warp_net::frame::MAX_FRAME_BYTES
        } else {
            self.max_frame_bytes as usize
        }
    }

    /// Process `proc_id`'s mesh configuration for one session. The
    /// coordinator and every worker build theirs here, so both ends of a
    /// link detect failure on the same timings: exactly the values
    /// [`NetTuning::validate`] accepted. `connect_ms` is the session's
    /// establishment budget (at least 100 ms).
    fn mesh_config(
        &self,
        proc_id: u32,
        n_procs: u32,
        session: u32,
        connect_ms: u64,
        faults: Option<FaultPlan>,
    ) -> TcpMeshConfig {
        TcpMeshConfig {
            session,
            heartbeat_interval: Duration::from_millis(self.heartbeat_ms),
            liveness_timeout: Duration::from_millis(self.liveness_ms),
            connect_timeout: Duration::from_millis(connect_ms.max(100)),
            faults,
            max_frame_bytes: self.frame_cap(),
            ..TcpMeshConfig::new(proc_id, n_procs)
        }
    }

    /// How long an orphaned worker, or a resumed one awaiting its
    /// images, waits for the coordinator before giving up.
    fn orphan_wait(&self) -> Duration {
        Duration::from_millis(self.liveness_ms.saturating_mul(10)).max(Duration::from_secs(30))
    }
}

/// Checkpoint-and-recovery policy for a distributed run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Take checkpoints and recover from unclean peer loss. Off, a lost
    /// worker fails the run immediately (the pre-recovery behavior).
    pub enabled: bool,
    /// How many recoveries the coordinator attempts before giving up.
    pub max_recoveries: u32,
    /// Minimum wall time between checkpoint initiations (milliseconds);
    /// 0 checkpoints at every GVT advance.
    pub ckpt_min_interval_ms: u64,
    /// GVT stall watchdog: if the committed horizon fails to advance for
    /// this long (milliseconds) while workers are still running, the
    /// coordinator declares the session livelocked and recovers it like
    /// an unclean peer loss. Catches "wedged but connected" failures —
    /// e.g. a control-plane partition that silences the GVT token ring
    /// while data links and heartbeats stay healthy — that the transport
    /// liveness detector can never see. 0 disables the watchdog.
    #[serde(default)]
    pub stall_budget_ms: u64,
    /// Directory for the durable checkpoint store: one segment file
    /// holding the job, the coordinator's state and the latest image
    /// set, replaced before every session and as each checkpoint
    /// completes (see `docs/recovery-store.md` for the format). `None`
    /// keeps all of it in coordinator memory only.
    #[serde(default)]
    pub store_dir: Option<String>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 100,
            stall_budget_ms: 0,
            store_dir: None,
        }
    }
}

/// Everything the coordinator needs to stage a distributed run.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Number of worker processes (each gets a contiguous LP block).
    pub n_workers: u32,
    /// Path to the worker binary to spawn.
    pub worker_bin: PathBuf,
    /// Opaque model description, forwarded verbatim to every worker's
    /// spec-builder. The coordinator never interprets it.
    pub model: serde_json::Value,
    /// Total LP count of the model — must match what the workers' spec
    /// builder produces, since both sides derive the LP→process
    /// assignment from it.
    pub n_lps: u32,
    /// Whole-run watchdog: bootstrap plus simulation plus teardown,
    /// recoveries included.
    pub timeout: Duration,
    /// Transport tuning, forwarded to every worker.
    pub net: NetTuning,
    /// Checkpoint-and-recovery policy.
    pub recovery: RecoveryPolicy,
    /// The cluster loop: LP migration and elastic membership. Arming it
    /// requires `recovery.enabled` — every plan rides the checkpoint
    /// machinery.
    pub cluster: ClusterPolicy,
    /// Whether the job records telemetry: the coordinator then records
    /// every round the cluster loop sees.
    pub telemetry: bool,
    /// Write the admission listener's address to this file once it is
    /// bound, so external `--join` workers (and tests) can find it.
    pub admit_file: Option<PathBuf>,
    /// Deterministic fault plan: link faults injected into every
    /// process's mesh, plus slowed and crashing processes (`None` =
    /// a healthy run).
    pub fault: Option<FaultPlan>,
}

impl DistConfig {
    /// Config with default tuning, recovery on, healthy links.
    pub fn new(n_workers: u32, worker_bin: PathBuf, model: serde_json::Value, n_lps: u32) -> Self {
        DistConfig {
            n_workers,
            worker_bin,
            model,
            n_lps,
            timeout: Duration::from_secs(120),
            net: NetTuning::default(),
            recovery: RecoveryPolicy::default(),
            cluster: ClusterPolicy::default(),
            telemetry: false,
            admit_file: None,
            fault: None,
        }
    }
}

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// Spawning, piping, or mesh establishment failed.
    Io(io::Error),
    /// A worker died, went half-open, or exited wrongly.
    Worker {
        /// Mesh process id of the failed worker.
        proc_id: u32,
        /// Cause, as observed by the coordinator.
        detail: String,
    },
    /// A peer violated the frame protocol.
    Protocol(String),
    /// The watchdog expired.
    Timeout(String),
    /// The configuration cannot be staged (bad worker/LP counts, …).
    InvalidConfig(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "distributed run I/O failure: {e}"),
            DistError::Worker { proc_id, detail } => {
                write!(f, "worker (proc {proc_id}) failed: {detail}")
            }
            DistError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DistError::Timeout(m) => write!(f, "distributed run timed out: {m}"),
            DistError::InvalidConfig(m) => write!(f, "invalid distributed config: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}

/// The first control message a worker reads on its control socket: what
/// is fixed for the process's whole life. The [`SessionLine`] of its
/// first session follows at once. Like that line, every field is
/// required (`null` spells an absent option): the coordinator writes them
/// all, and a peer of another build would be refused at the mesh `Hello`
/// anyway.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerInit {
    /// This worker's mesh process id (1-based; 0 is the coordinator).
    pub proc_id: u32,
    /// Total LP count; every session's owner map must cover exactly
    /// this many.
    pub n_lps: u32,
    /// Opaque model description for the worker's spec builder.
    pub model: serde_json::Value,
    /// Transport tuning (identical on every process).
    pub net: NetTuning,
    /// Whether the checkpoint/recovery protocol is armed.
    pub recovery: bool,
    /// Whether the cluster loop is armed (workers then stream one
    /// [`Frame::LoadReport`] per LP at each GVT round).
    pub balance: bool,
    /// Deterministic fault plan: the mesh applies its link rules; the
    /// worker looks up its own `Slow` and `CrashWorker` entries.
    pub fault: Option<FaultPlan>,
}

/// The line of JSON that starts every worker session, the first
/// included: the session epoch, who is in the mesh and where, and who
/// owns which LP.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionLine {
    /// Session epoch to establish under (0 = the fresh start; any later
    /// session awaits the coordinator's resume stream).
    pub session: u32,
    /// Every process's listen address, as `(proc_id, addr)` pairs.
    pub peers: Vec<(u32, String)>,
    /// Mesh establishment budget, milliseconds.
    pub connect_ms: u64,
    /// The LP→worker owner map (`assignment[lp]` = owning proc id): the
    /// migrated placement after a migration.
    pub assignment: Vec<u32>,
    /// Total mesh size (workers + coordinator): the grown or shrunk
    /// cluster shape after a scale.
    pub n_procs: u32,
}

impl SessionLine {
    /// The session's owner map, refused unless it covers exactly `n_lps`
    /// LPs over this session's workers.
    fn owners(&self, n_lps: u32) -> Result<Assignment, String> {
        let assign =
            Assignment::from_owners(self.assignment.clone(), self.n_procs.saturating_sub(1))
                .map_err(|e| format!("session {} assignment: {e}", self.session))?;
        if assign.n_lps() != n_lps {
            return Err(format!(
                "session {} assignment covers {} LPs but the model has {n_lps}",
                self.session,
                assign.n_lps()
            ));
        }
        Ok(assign)
    }
}

/// A worker's end-of-run payload (travels as `Frame::Report` bytes).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkerReport {
    gvt_rounds: u64,
    per_lp: Vec<LpSummary>,
    /// Resume accounting accumulated across this worker's sessions (the
    /// LPs it built from their images).
    resume: ResumeStats,
    /// The worker process's peak resident set in KiB ([`peak_rss_kb`]).
    #[serde(default)]
    peak_rss_kb: u64,
    /// `write(2)` calls on this worker's links to its peer workers,
    /// summed over its sessions.
    #[serde(default)]
    link_writes: u64,
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`) in
/// KiB, or 0 where the platform does not say.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// One message on a worker's control socket, carried as JSON in a
/// [`Frame::Control`].
#[derive(Debug, Serialize, Deserialize)]
enum Control {
    /// Worker → coordinator, before every session: the listener it joins
    /// that session's mesh on.
    Listen(String),
    /// Coordinator → a fresh worker, once: what is fixed for its life.
    Init(WorkerInit),
    /// Coordinator → worker: the start of every session.
    Session(SessionLine),
    /// Coordinator → a scale-in retiree, at the regroup instead of its
    /// next session: leave, and exit 0.
    Retire,
}

/// A worker's control socket, from either end: the one stream the worker
/// dialed at the admission point, open for the process's whole life, and
/// the decoder of what arrives on it. No thread reads it: each end reads
/// it only where it waits anyway, under a read timeout.
struct ControlLink {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl ControlLink {
    fn new(stream: TcpStream) -> ControlLink {
        // Messages go out back to back (a handshake and an announcement,
        // an init and a session start): Nagle would hold the second one
        // for the first one's delayed ACK.
        let _ = stream.set_nodelay(true);
        ControlLink {
            stream,
            dec: FrameDecoder::new(),
        }
    }

    /// Dial the admission point at `addr` and present `hello`.
    fn dial(addr: &str, hello: &Frame) -> io::Result<ControlLink> {
        let mut link = ControlLink::new(TcpStream::connect(addr)?);
        link.stream.write_all(&hello.encode())?;
        Ok(link)
    }

    fn send(&mut self, msg: &Control) -> io::Result<()> {
        let json = serde_json::to_vec(msg).map_err(io::Error::other)?;
        self.stream.write_all(&Frame::Control(json).encode())
    }

    /// The next control message, waiting up to `timeout` for it (`None`
    /// waits for ever): `Ok(None)` when none came in time. A closed
    /// socket is an error; so is anything but a control message
    /// (`InvalidData`).
    fn recv(&mut self, timeout: Option<Duration>) -> io::Result<Option<Control>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = [0u8; 4096];
        loop {
            if let Some(msg) = next_control(&mut self.dec)? {
                return Ok(Some(msg));
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return Ok(None);
            }
            self.stream.set_read_timeout(left)?;
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() != ErrorKind::Interrupted => return Err(e),
                Err(_) => {}
            }
        }
    }
}

/// Decode the next control message from what a control socket has
/// delivered so far (`Ok(None)`: not all of it yet).
fn next_control(dec: &mut FrameDecoder) -> io::Result<Option<Control>> {
    let invalid = |m: String| io::Error::new(ErrorKind::InvalidData, m);
    match dec.next().map_err(|e| invalid(e.to_string()))? {
        None => Ok(None),
        Some(Frame::Control(json)) => serde_json::from_slice(&json)
            .map(Some)
            .map_err(|e| invalid(format!("control message: {e}"))),
        Some(other) => Err(invalid(format!(
            "unexpected {other:?} on the control socket"
        ))),
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// A worker process as the coordinator holds it: the child it spawned
/// (`None` for a process that dialed in on its own), kept only to kill
/// and reap, and the control socket the process dialed in on.
struct WorkerProc {
    child: Option<Child>,
    /// `None` until a spawned child's [`Frame::Join`] pairs it
    /// ([`await_listen`]).
    link: Option<ControlLink>,
    /// Not yet sent its [`WorkerInit`] (a fresh spawn or admission): the
    /// next session's [`SessionLine`] goes right behind one.
    fresh: bool,
    /// The listen address [`await_listen`] collected for the next session.
    pending_listen: Option<String>,
}

impl WorkerProc {
    /// A `--join` worker that dialed in on its own, adopted at a
    /// scale-out.
    fn dialed(link: ControlLink) -> WorkerProc {
        WorkerProc {
            child: None,
            link: Some(link),
            fresh: true,
            pending_listen: None,
        }
    }

    /// Wait, until `deadline`, for a clean exit after the final report or
    /// after a scale-in's notice to leave: the control socket closes, and
    /// a child must then have exited 0; a process that dialed in counts
    /// as clean once its socket closes (there is no exit status to
    /// observe across the wire).
    fn wait_success(&mut self, proc_id: u32, deadline: Instant) -> Result<(), DistError> {
        if let Some(link) = &mut self.link {
            loop {
                match link.recv(Some(deadline.saturating_duration_since(Instant::now()))) {
                    Ok(Some(_)) => {} // a stray announcement; keep draining
                    Ok(None) => {
                        return Err(DistError::Timeout(format!(
                            "worker (proc {proc_id}) never closed its control socket"
                        )))
                    }
                    Err(_) => break,
                }
            }
        }
        // A child whose control socket closed is exiting: reaping it
        // waits no longer than that.
        let Some(c) = &mut self.child else {
            return Ok(());
        };
        match c.wait() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(DistError::Worker {
                proc_id,
                detail: format!("exited with {status} instead of 0"),
            }),
            Err(e) => Err(DistError::Io(e)),
        }
    }

    /// Kill and reap a child; a process that dialed in on its own sees
    /// its control socket close when this handle drops.
    fn kill(&mut self) {
        if let Some(c) = &mut self.child {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The run's admission point, where every worker dials in: a child the
/// coordinator spawned, or a `--join` worker offering itself for a
/// scale-out. Each presents its handshake, then waits in `dialers` until
/// the coordinator takes it. The acceptor thread holds only a [`Weak`]
/// reference and blocks in `accept`; dropping the point dials it once,
/// so the thread sees the coordinator is gone, drops the listener and is
/// joined.
struct Admission {
    dialers: Mutex<Dialers>,
    /// Signalled whenever a dialer joins the queue.
    arrived: Condvar,
    addr: String,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

#[derive(Default)]
struct Dialers {
    /// Handshaken dialers, oldest first: the frame each presented and
    /// its control socket.
    waiting: Vec<(Frame, ControlLink)>,
    /// The OS pid of every child this coordinator spawned: their `Join`s
    /// are theirs, never a scale-out's.
    spawned: HashSet<u32>,
}

/// Whether a handshake is an external joiner's: a `Join` from no child
/// of this coordinator.
fn is_joiner(hello: &Frame, spawned: &HashSet<u32>) -> bool {
    matches!(hello, Frame::Join { pid, .. } if !spawned.contains(pid))
}

impl Admission {
    /// Open the run's admission point on an ephemeral port, start its
    /// acceptor thread, and publish the address to `cfg.admit_file` when
    /// asked. It outlives every session: a `--join` worker may dial in
    /// long before pressure warrants adopting it.
    fn open(cfg: &DistConfig) -> Result<Arc<Admission>, DistError> {
        let listener = bind_loopback()?;
        let addr = listener.local_addr()?.to_string();
        eprintln!("coordinator: admission point at {addr}");
        if let Some(path) = &cfg.admit_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let admission = Arc::new(Admission {
            dialers: Mutex::default(),
            arrived: Condvar::new(),
            addr,
            acceptor: Mutex::default(),
        });
        let weak: Weak<Admission> = Arc::downgrade(&admission);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                if weak.strong_count() == 0 {
                    return;
                }
                // Each handshake on a thread of its own, gone as soon as
                // it is read: a dialer that sends nothing holds up no one.
                let weak = weak.clone();
                std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                    let Ok(hello) = read_handshake(&mut &stream) else {
                        return;
                    };
                    let Some(adm) = weak.upgrade() else { return };
                    let link = ControlLink::new(stream);
                    adm.dialers.lock().unwrap().waiting.push((hello, link));
                    adm.arrived.notify_all();
                });
            }
        });
        *admission.acceptor.lock().unwrap() = Some(acceptor);
        Ok(admission)
    }

    /// Spawn the worker binary for slot `proc_id`, pointed at this
    /// admission point; its OS pid is named on stderr as
    /// `WORKER_PID <proc_id> <pid>`, and the `Join` naming it takes the
    /// slot ([`await_listen`]).
    fn spawn(&self, bin: &Path, proc_id: u32) -> io::Result<WorkerProc> {
        let child = Command::new(bin)
            .arg("--join")
            .arg(&self.addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        eprintln!("WORKER_PID {proc_id} {}", child.id());
        self.dialers.lock().unwrap().spawned.insert(child.id());
        Ok(WorkerProc {
            child: Some(child),
            link: None,
            fresh: true,
            pending_listen: None,
        })
    }

    /// Take the oldest dialer whose handshake `pick` accepts, waiting up
    /// to `timeout` for one to arrive.
    fn take(
        &self,
        timeout: Duration,
        pick: impl Fn(&Frame, &HashSet<u32>) -> bool,
    ) -> Option<(Frame, ControlLink)> {
        let until = Instant::now() + timeout;
        let mut q = self.dialers.lock().unwrap();
        loop {
            let d = &*q;
            if let Some(i) = d.waiting.iter().position(|(h, _)| pick(h, &d.spawned)) {
                return Some(q.waiting.remove(i));
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            q = self.arrived.wait_timeout(q, left).unwrap().0;
        }
    }

    fn joiners_waiting(&self) -> bool {
        let d = self.dialers.lock().unwrap();
        d.waiting.iter().any(|(h, _)| is_joiner(h, &d.spawned))
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        // Wake the acceptor out of `accept`: it finds no coordinator
        // left and returns, dropping the listener.
        let woken = TcpStream::connect(&self.addr).is_ok();
        let acceptor = self.acceptor.get_mut().map(Option::take);
        if let (true, Ok(Some(acceptor))) = (woken, acceptor) {
            let _ = acceptor.join();
        }
    }
}

/// The most a handshake frame body may declare (a `Join`'s is 7 bytes).
const HANDSHAKE_CAP: usize = 64;

/// Read exactly one handshake frame, into a [`HANDSHAKE_CAP`]-byte buffer,
/// and accept a [`Frame::Join`] of this protocol version. Anything else
/// is an error, and the admission point drops the dialer: it must shrug
/// off port scanners and stale dialers.
fn read_handshake(src: &mut impl Read) -> io::Result<Frame> {
    let refuse = |m: String| io::Error::new(ErrorKind::InvalidData, m);
    let mut len_buf = [0u8; 4];
    src.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > HANDSHAKE_CAP {
        return Err(refuse(format!("handshake of {len} bytes")));
    }
    let mut body = [0u8; HANDSHAKE_CAP];
    src.read_exact(&mut body[..len])?;
    let mut dec = FrameDecoder::with_limit(HANDSHAKE_CAP);
    dec.push(&len_buf);
    dec.push(&body[..len]);
    match dec.next() {
        Ok(Some(hello @ Frame::Join { version, .. })) if version == PROTO_VERSION => Ok(hello),
        Ok(_) => Err(refuse("not a handshake frame".into())),
        Err(e) => Err(refuse(e.to_string())),
    }
}

/// How one mesh session ended, from the coordinator's point of view.
enum SessionEnd {
    /// Every worker reported and said goodbye.
    Finished(Vec<WorkerReport>),
    /// The session ended short of the finish; the cluster regroups
    /// ([`CoordState::regroup`]) and runs another.
    Regroup(Regroup),
}

/// Why a session ended short of the finish. Every cause takes the same
/// regroup step; they differ only in the membership change.
enum Regroup {
    /// The cluster loop's plan: LP moves between the current workers, or
    /// one worker added or retired (the highest numbered).
    Plan(Plan),
    /// A worker was lost uncleanly. The newcomer of the last scale-out,
    /// still on probation, is evicted (a fallback); anyone else is
    /// recovered (a crash recovery).
    Lost { peer: u32, detail: String },
}

/// What a regroup does to the worker processes: the one part of the
/// step that needs them, carried out by the session loop.
#[derive(Debug, PartialEq)]
enum Membership {
    /// The same workers (migration, crash recovery: dead ones are
    /// respawned by [`await_listen`]).
    Keep,
    /// Adopt a waiting `--join` worker, or spawn one, as this proc id.
    Admit(u32),
    /// The retiree with this proc id is told to leave, and exits 0.
    Retire(u32),
    /// The newcomer on probation (the last worker) is killed.
    Evict,
}

/// Checkpoint images and horizon: everything the coordinator must keep
/// across sessions to restore the cluster.
struct CkptStore {
    /// Every LP's image of `horizon`, by LP id; empty before the first
    /// checkpoint commits (a resume then starts every LP fresh).
    images: Vec<Vec<u8>>,
    /// The horizon of the last *complete* checkpoint.
    horizon: VirtualTime,
    /// Monotone checkpoint id across the whole run.
    next_ckpt: u32,
    /// Durable copy of the run: one segment file, replaced by
    /// [`CoordState::persist`] (`None` = in-memory only).
    segment: Option<SegmentStore>,
    /// Coordinator-side resume/store accounting for the run report.
    stats: ResumeStats,
}

impl CkptStore {
    /// Commit checkpoint `done` of `horizon`: every worker's image set,
    /// checked to hold the image of each LP it owns under `assign` and
    /// nothing else, replaces the stored images.
    fn commit(
        &mut self,
        horizon: VirtualTime,
        parts: Vec<Vec<u8>>,
        assign: &Assignment,
    ) -> Result<(), DistError> {
        let mut images: Vec<Option<Vec<u8>>> = vec![None; assign.n_lps() as usize];
        for (w, part) in parts.into_iter().enumerate() {
            let proc_id = w as u32 + 1;
            self.stats.ckpt_bytes += part.len() as u64;
            let (h, set) = decode_image_set(&part)
                .map_err(|e| DistError::Protocol(format!("checkpoint from proc {proc_id}: {e}")))?;
            for (lp, image) in set {
                let mine = (lp < assign.n_lps()) && assign.proc_of(lp) == proc_id;
                if h != horizon || !mine || images[lp as usize].is_some() {
                    return Err(DistError::Protocol(format!(
                        "checkpoint from proc {proc_id}: an image of LP {lp} at {h} \
                         does not belong in the checkpoint of {horizon}"
                    )));
                }
                images[lp as usize] = Some(image);
            }
        }
        let images = images
            .into_iter()
            .enumerate()
            .map(|(lp, image)| {
                image.ok_or_else(|| {
                    DistError::Protocol(format!("checkpoint of {horizon} misses LP {lp}"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.images = images;
        self.horizon = horizon;
        Ok(())
    }

    /// The image set worker `proc_id` resumes from under `assign`: the
    /// images of the LPs it owns (none before the first checkpoint).
    fn resume_payload(&self, assign: &Assignment, proc_id: u32) -> Vec<u8> {
        let mine: Vec<&Vec<u8>> = if self.images.is_empty() {
            Vec::new()
        } else {
            assign
                .lps_of(proc_id)
                .into_iter()
                .map(|lp| &self.images[lp as usize])
                .collect()
        };
        encode_image_set(self.horizon, &mine)
    }
}

/// A checkpoint in flight: the parts received so far, by worker, and
/// the horizon they name. The coordinator only asks for a checkpoint;
/// the round the controller LP tags decides its horizon.
struct PendingCkpt {
    ckpt: u32,
    horizon: Option<VirtualTime>,
    parts: Vec<Option<Vec<u8>>>,
}

impl PendingCkpt {
    fn new(ckpt: u32, n_workers: usize) -> Self {
        PendingCkpt {
            ckpt,
            horizon: None,
            parts: vec![None; n_workers],
        }
    }

    /// Take worker `from`'s part, for the horizon `gvt`. Every part of
    /// one checkpoint must name the same horizon: images of different
    /// horizons do not make one consistent cut, a protocol error.
    /// Returns the horizon once every worker's part is in.
    fn accept(
        &mut self,
        from: u32,
        gvt: VirtualTime,
        payload: Vec<u8>,
    ) -> Result<Option<VirtualTime>, DistError> {
        let horizon = *self.horizon.get_or_insert(gvt);
        if gvt != horizon {
            return Err(DistError::Protocol(format!(
                "checkpoint {}: proc {from} answered for horizon {gvt}, another worker for {horizon}",
                self.ckpt
            )));
        }
        self.parts[from as usize - 1] = Some(payload);
        Ok(self.parts.iter().all(Option::is_some).then_some(horizon))
    }
}

/// The coordinator's cross-session mutable state — everything the
/// segment file persists. A fresh [`run_coordinator`] builds it from the
/// config; a restarted [`resume_coordinator`] rebuilds it from the
/// segment file; both then drive the same session loop ([`run_cluster`]).
struct CoordState {
    assign: Assignment,
    store: CkptStore,
    session: u32,
    recoveries: u64,
    migrations: Vec<MigrationRecord>,
    scales: Vec<ScaleRecord>,
    telemetry: Option<TelemetryReport>,
    /// A newcomer admitted by the last scale-out, on probation for one
    /// session: `(proc_id, pre-scale assignment, pressure)`. Never
    /// stored — a coordinator outage ends the probation session
    /// anyway, and the fallback assignment is reconstructible from the
    /// stored one.
    probation: Option<(u32, Assignment, f64)>,
    /// Checkpoint barriers completed across the whole run, every
    /// coordinator incarnation included — the unit a
    /// [`warp_net::ProcFault::CrashCoordinator`] counts.
    barriers: u64,
    /// The rounds the cluster loop saw, recorded with the job's telemetry
    /// on. Observational and never stored: a resumed coordinator records
    /// its own.
    rounds: Vec<LoadRound>,
}

/// The coordinator's control-plane state: the JSON payload of the
/// segment file's state record, written with the images it goes with
/// before every session and at every checkpoint barrier. The horizon is
/// the segment header's.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CoordJournal {
    /// Epoch of the session this record closed (the resumed coordinator
    /// continues at `session + 1`).
    session: u32,
    next_ckpt: u32,
    /// The LP→worker owner map at write time.
    owners: Vec<u32>,
    n_workers: u32,
    recoveries: u64,
    barriers: u64,
    migrations: Vec<MigrationRecord>,
    scales: Vec<ScaleRecord>,
    /// Coordinator-side store accounting, every incarnation's.
    stats: ResumeStats,
    telemetry: Option<TelemetryReport>,
}

impl CoordJournal {
    /// Decode a stored state record.
    fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        serde_json::from_slice(bytes)
            .map_err(|e| SnapshotError::Corrupt(format!("state record: {e}")))
    }
}

impl CoordState {
    /// Replace the segment file with the current control-plane state and
    /// images. A no-op without a durable store. Called before every
    /// session and at every checkpoint barrier.
    fn persist(&mut self) -> Result<(), DistError> {
        let Some(segment) = &self.store.segment else {
            return Ok(());
        };
        let images = &self.store.images;
        self.store.stats.store_spilled_bytes += images.iter().map(|i| i.len() as u64).sum::<u64>();
        let rec = CoordJournal {
            session: self.session,
            next_ckpt: self.store.next_ckpt,
            owners: self.assign.owners().to_vec(),
            n_workers: self.assign.n_workers(),
            recoveries: self.recoveries,
            barriers: self.barriers,
            migrations: self.migrations.clone(),
            scales: self.scales.clone(),
            stats: self.store.stats.clone(),
            telemetry: self.telemetry.clone(),
        };
        let state = serde_json::to_vec(&rec)
            .map_err(|e| DistError::Protocol(format!("encoding the coordinator state: {e}")))?;
        segment
            .replace(self.store.horizon, Some(&state), images)
            .map_err(|e| DistError::Io(io::Error::other(format!("checkpoint store write: {e}"))))
    }

    /// Merge a batch of streamed telemetry or control events into the
    /// run's trajectory.
    fn merge_telemetry(&mut self, batch: TelemetryReport) {
        match &mut self.telemetry {
            Some(t) => t.merge(batch),
            None => self.telemetry = Some(batch),
        }
    }

    /// Whether `proc_id` is the newcomer of the last scale-out, still on
    /// probation.
    fn on_probation(&self, proc_id: u32) -> bool {
        self.probation
            .as_ref()
            .is_some_and(|(p, _, _)| *p == proc_id)
    }

    /// The regroup step of every session that ends short of the finish,
    /// in one order for every kind:
    ///
    /// 1. the membership change, the only part that differs by kind: none
    ///    for a migration, a newcomer on probation for a scale-out, the
    ///    retiree's exit for a scale-in, the newcomer's eviction and one
    ///    recovery for a fallback, one recovery for a crash;
    /// 2. the next assignment (unchanged for a crash), which decides
    ///    where each LP's image goes at the resume;
    /// 3. one record and its control events;
    /// 4. the session bumped.
    ///
    /// Touches no process and no socket: the returned [`Membership`] is
    /// what the session loop carries out on the workers. A crash past the
    /// recovery budget (or with recovery off) ends the run instead.
    fn regroup(
        &mut self,
        cause: Regroup,
        recovery: &RecoveryPolicy,
    ) -> Result<Membership, DistError> {
        let gvt = (self.store.horizon > VirtualTime::ZERO).then(|| self.store.horizon.ticks());
        let event = |param, old, new, sampled_o| ControlEvent {
            gvt,
            lp: 0,
            object: 0,
            lvt: None,
            param,
            old,
            new,
            sampled_o,
        };
        // Only a scale-out puts a newcomer on probation; only another
        // worker's loss leaves one there.
        let probation = self.probation.take();
        let (membership, next, events) = match cause {
            Regroup::Plan(plan) => {
                let (from, to) = (self.assign.n_workers(), plan.assignment.n_workers());
                let pressure = plan.pressure;
                let membership = if to > from {
                    self.probation = Some((to, self.assign.clone(), pressure));
                    Membership::Admit(to)
                } else if to < from {
                    Membership::Retire(from)
                } else {
                    Membership::Keep
                };
                let events = if from == to {
                    let moved = |m: &Move| ControlEvent {
                        lp: m.lp,
                        object: m.lp,
                        ..event(Param::Assignment, m.from as f64, m.to as f64, pressure)
                    };
                    let events = plan.moves.iter().map(moved).collect();
                    self.migrations.push(MigrationRecord {
                        gvt,
                        imbalance: pressure,
                        moves: plan.moves,
                    });
                    events
                } else {
                    self.scales.push(ScaleRecord {
                        gvt,
                        direction: if to > from { "out" } else { "in" }.into(),
                        from_workers: from,
                        to_workers: to,
                        pressure,
                        moves: plan.moves,
                    });
                    vec![event(Param::ClusterSize, from as f64, to as f64, pressure)]
                };
                (membership, Some(plan.assignment), events)
            }
            Regroup::Lost { peer, detail } => match probation {
                // A newcomer that dies on probation is evicted, not
                // recovered: fall back to the pre-scale membership so one
                // bad admission cannot wedge the cluster.
                Some((newbie, pre_assign, _)) if newbie == peer => {
                    eprintln!(
                        "warp-coordinator: evicting probation worker {newbie} ({detail}); \
                         falling back to {} workers",
                        pre_assign.n_workers()
                    );
                    self.recoveries += 1;
                    self.scales.push(ScaleRecord {
                        gvt,
                        direction: "fallback".into(),
                        from_workers: newbie,
                        to_workers: pre_assign.n_workers(),
                        pressure: -1.0,
                        moves: Vec::new(),
                    });
                    let events = vec![event(
                        Param::ClusterSize,
                        newbie as f64,
                        pre_assign.n_workers() as f64,
                        -1.0,
                    )];
                    (Membership::Evict, Some(pre_assign), events)
                }
                probation => {
                    if !recovery.enabled || self.recoveries >= recovery.max_recoveries as u64 {
                        return Err(DistError::Worker {
                            proc_id: peer,
                            detail: if recovery.enabled {
                                format!(
                                    "{detail} (recovery budget of {} exhausted)",
                                    self.recoveries
                                )
                            } else {
                                detail
                            },
                        });
                    }
                    self.probation = probation;
                    self.recoveries += 1;
                    (Membership::Keep, None, Vec::new())
                }
            },
        };
        if let Some(next) = next {
            self.assign = next;
        }
        if !events.is_empty() {
            self.merge_telemetry(TelemetryReport {
                events,
                ..TelemetryReport::default()
            });
        }
        self.session += 1;
        Ok(membership)
    }
}

/// Refuse a configuration that cannot be staged, before any worker
/// exists. A fresh run checks it against its starting worker count, a
/// resume against the stored one.
fn validate_config(cfg: &DistConfig, n_workers: u32) -> Result<(), DistError> {
    let invalid = |m: &str| Err(DistError::InvalidConfig(m.into()));
    cfg.net.validate().map_err(DistError::InvalidConfig)?;
    cfg.cluster.validate().map_err(DistError::InvalidConfig)?;
    if cfg.cluster.armed() && !cfg.recovery.enabled {
        return invalid(
            "the cluster loop requires recovery: migration and scaling ride the \
             checkpoint/resume machinery",
        );
    }
    let (min, max) = cfg.cluster.workers.unwrap_or((n_workers, n_workers));
    if !(min..=max).contains(&n_workers) {
        return Err(DistError::InvalidConfig(format!(
            "initial worker count {n_workers} outside the elastic bounds {min}..={max}"
        )));
    }
    // A fault may name a proc only a scale-out creates, up to the
    // maximum worker count.
    if let Some(fault) = &cfg.fault {
        fault.validate(max).map_err(DistError::InvalidConfig)?;
    }
    if cfg.recovery.store_dir.is_some() && !cfg.recovery.enabled {
        return invalid(
            "recovery.store_dir set but recovery is disabled: the store would never see a checkpoint",
        );
    }
    Ok(())
}

/// Stage and run a distributed simulation, returning the merged report.
///
/// Spawns `cfg.n_workers` copies of `cfg.worker_bin`, walks them through
/// the bootstrap protocol, then supervises sessions until every worker
/// reports — recovering lost workers from checkpoints up to
/// `cfg.recovery.max_recoveries` times. The watchdog in `cfg.timeout`
/// bounds the whole run, recoveries included.
pub fn run_coordinator(cfg: &DistConfig) -> Result<RunReport, DistError> {
    let start = Instant::now();
    let assign =
        Assignment::contiguous(cfg.n_lps, cfg.n_workers).map_err(DistError::InvalidConfig)?;
    validate_config(cfg, cfg.n_workers)?;
    // Open the durable store before any worker exists, so a bad
    // directory fails the run without orphaning processes.
    let segment = match &cfg.recovery.store_dir {
        Some(dir) => Some(
            SegmentStore::create(Path::new(dir), model_json(cfg)?)
                .map_err(|e| DistError::InvalidConfig(format!("checkpoint store at {dir}: {e}")))?,
        ),
        None => None,
    };
    let st = CoordState {
        assign,
        store: CkptStore {
            images: Vec::new(),
            horizon: VirtualTime::ZERO,
            next_ckpt: 0,
            segment,
            stats: ResumeStats::default(),
        },
        session: 0,
        recoveries: 0,
        migrations: Vec::new(),
        scales: Vec::new(),
        // Cluster-wide telemetry, merged from the workers' streamed
        // batches. Accumulated across sessions: observations from a lost
        // session are real observations of real (if later re-executed)
        // work.
        telemetry: None,
        probation: None,
        barriers: 0,
        rounds: Vec::new(),
    };
    run_cluster(cfg, start, st)
}

/// The coordinator's run, shared by a fresh [`run_coordinator`] and a
/// [`resume_coordinator`] that starts from the segment file: open the
/// admission point and spawn every worker slot of the current
/// membership. Whatever ends the run in an error, every worker is killed
/// here.
fn run_cluster(
    cfg: &DistConfig,
    start: Instant,
    mut st: CoordState,
) -> Result<RunReport, DistError> {
    let admission = Admission::open(cfg)?;
    let mut workers = Vec::new();
    let deadline = start + cfg.timeout;
    let run = run_sessions(cfg, deadline, &admission, &mut st, &mut workers);
    let reports = match run {
        Ok(reports) => reports,
        Err(e) => {
            kill_all(&mut workers);
            return Err(e);
        }
    };
    Ok(merge_reports(reports, start.elapsed().as_secs_f64(), st))
}

/// Run sessions until one finishes. Before each, [`await_listen`] collects
/// every worker's listen address and the segment file takes the state
/// the session starts from. A session that ends short of the finish
/// takes the regroup step ([`CoordState::regroup`]), and its membership
/// change is carried out here.
fn run_sessions(
    cfg: &DistConfig,
    deadline: Instant,
    admission: &Admission,
    st: &mut CoordState,
    workers: &mut Vec<WorkerProc>,
) -> Result<Vec<WorkerReport>, DistError> {
    for proc_id in 1..=st.assign.n_workers() {
        workers.push(admission.spawn(&cfg.worker_bin, proc_id)?);
    }
    loop {
        let cause = match await_listen(cfg, admission, workers, deadline) {
            // The newcomer on probation never announced itself (a
            // `--join` worker that closed its socket, say). No session
            // line has gone out yet, so the survivors still wait for
            // theirs: evicting it costs them nothing.
            Err(DistError::Worker { proc_id, detail }) if st.on_probation(proc_id) => {
                Regroup::Lost {
                    peer: proc_id,
                    detail,
                }
            }
            Err(e) => restart_all(cfg, admission, workers, deadline, st.recoveries, e)?,
            Ok(()) => {
                st.persist()?;
                match run_session_as_coordinator(cfg, workers, deadline, admission, st) {
                    Ok(SessionEnd::Finished(reports)) => {
                        for (i, w) in workers.iter_mut().enumerate() {
                            w.wait_success(i as u32 + 1, deadline)?;
                        }
                        return Ok(reports);
                    }
                    Ok(SessionEnd::Regroup(cause)) => cause,
                    Err(e) => restart_all(cfg, admission, workers, deadline, st.recoveries, e)?,
                }
            }
        };
        match st.regroup(cause, &cfg.recovery)? {
            Membership::Keep => {}
            Membership::Admit(proc_id) => {
                // Prefer a worker that already dialed in; spawn a fresh
                // copy of the binary otherwise.
                let newcomer = match admission.take(Duration::ZERO, is_joiner) {
                    Some((_, link)) => WorkerProc::dialed(link),
                    None => admission.spawn(&cfg.worker_bin, proc_id)?,
                };
                workers.push(newcomer);
            }
            Membership::Retire(proc_id) => {
                let mut retiree = workers.pop().expect("scale-in retires an existing worker");
                // The notice waits on its control socket until its session
                // has ended like everyone's. Everything it owned is in the
                // images already, so a retiree that does not leave cleanly
                // (it crashed, or hangs) costs the run nothing: it is
                // killed.
                if let Some(link) = &mut retiree.link {
                    let _ = link.send(&Control::Retire);
                }
                if let Err(e) = retiree.wait_success(proc_id, deadline) {
                    eprintln!("warp-coordinator: retiree (proc {proc_id}) did not leave cleanly ({e}); killing it");
                    retiree.kill();
                }
            }
            Membership::Evict => workers
                .pop()
                .expect("the newcomer is the last worker")
                .kill(),
        }
    }
}

/// A failure outside the mesh (bootstrap I/O, a worker dying
/// mid-handshake) is recovered by restarting every worker, its state
/// restored from the images: a crash recovery as far as the regroup step
/// is concerned. A process that dialed in on its own cannot be respawned
/// from here, so with one in the cluster the failure is final, as it is
/// with recovery off, past the budget or past the deadline.
fn restart_all(
    cfg: &DistConfig,
    admission: &Admission,
    workers: &mut Vec<WorkerProc>,
    deadline: Instant,
    recoveries: u64,
    e: DistError,
) -> Result<Regroup, DistError> {
    let retryable = matches!(e, DistError::Io(_) | DistError::Worker { .. })
        && workers.iter().all(|w| w.child.is_some());
    if !cfg.recovery.enabled
        || !retryable
        || recoveries >= cfg.recovery.max_recoveries as u64
        || Instant::now() >= deadline
    {
        return Err(e);
    }
    let n_restart = workers.len();
    kill_all(workers);
    workers.clear();
    for i in 0..n_restart {
        workers.push(admission.spawn(&cfg.worker_bin, i as u32 + 1)?);
    }
    let peer = match &e {
        DistError::Worker { proc_id, .. } => *proc_id,
        _ => 0,
    };
    Ok(Regroup::Lost {
        peer,
        detail: e.to_string(),
    })
}

/// The model spec as canonical JSON — the segment file's job record.
fn model_json(cfg: &DistConfig) -> Result<String, DistError> {
    serde_json::to_string(&cfg.model)
        .map_err(|e| DistError::Protocol(format!("encoding model spec: {e}")))
}

/// The job a store's segment file was created with, verbatim — what a
/// self-contained `--resume STORE_DIR` parses instead of a job file.
pub fn stored_job_json(store_dir: &Path) -> Result<String, DistError> {
    Ok(load_store(store_dir)?.job)
}

/// Read the segment file of a store directory.
fn load_store(store_dir: &Path) -> Result<Segment, DistError> {
    let path = segment_path(store_dir);
    load_segment(&path)
        .map_err(|e| DistError::InvalidConfig(format!("checkpoint store {}: {e}", path.display())))
}

/// Resume an interrupted distributed run from its durable store: load
/// the coordinator's state and the latest images from the segment file,
/// spawn every worker slot afresh, bump the session, and continue the run
/// to completion. Each LP restores from its image, as after any other
/// recovery; the dead coordinator's workers are orphans and exit on
/// their own.
///
/// `cfg` must describe the same job the store was created with (its job
/// record is compared verbatim); `cfg.n_workers` is ignored in favor of
/// the stored membership, which elastic scaling may have changed since
/// the run began.
pub fn resume_coordinator(cfg: &DistConfig, store_dir: &Path) -> Result<RunReport, DistError> {
    let start = Instant::now();
    if !cfg.recovery.enabled {
        return Err(DistError::InvalidConfig(
            "resume requires recovery: the store is part of the checkpoint machinery".into(),
        ));
    }
    let seg = load_store(store_dir)?;
    let job = model_json(cfg)?;
    if seg.job != job {
        return Err(DistError::InvalidConfig(format!(
            "job spec does not match the store at {}: resuming it would continue a \
             different run",
            store_dir.display()
        )));
    }
    let Some(state) = seg.state else {
        // The coordinator died before its first session: nothing durable
        // exists beyond the job, so resuming degenerates to a fresh start
        // (which re-creates the store).
        return run_coordinator(cfg);
    };
    let rec = CoordJournal::decode(&state).map_err(|e| {
        DistError::InvalidConfig(format!("checkpoint store {}: {e}", store_dir.display()))
    })?;
    let assign = Assignment::from_owners(rec.owners.clone(), rec.n_workers)
        .map_err(|e| DistError::InvalidConfig(format!("stored assignment: {e}")))?;
    if assign.n_lps() != cfg.n_lps {
        return Err(DistError::InvalidConfig(format!(
            "stored assignment covers {} LPs, the spec builds {}",
            assign.n_lps(),
            cfg.n_lps
        )));
    }
    let n_workers = rec.n_workers;
    validate_config(cfg, n_workers)?;
    if !(seg.images.is_empty() || seg.images.len() == cfg.n_lps as usize) {
        return Err(DistError::InvalidConfig(format!(
            "checkpoint store {} holds {} images, the spec builds {} LPs",
            store_dir.display(),
            seg.images.len(),
            cfg.n_lps
        )));
    }
    let store = CkptStore {
        images: seg.images,
        horizon: seg.horizon,
        next_ckpt: rec.next_ckpt,
        segment: Some(SegmentStore::open(store_dir, job)),
        stats: rec.stats,
    };
    let horizon = store.horizon;
    eprintln!(
        "coordinator: resumed run at session {} (horizon {horizon}): spawning {n_workers} \
         worker(s)",
        rec.session
    );

    // The outage is a recovery: bump the session, count it, and put it
    // on the control trajectory so the report shows the run healed
    // itself.
    let session = rec.session + 1;
    let mut st = CoordState {
        assign,
        store,
        session,
        recoveries: rec.recoveries + 1,
        migrations: rec.migrations,
        scales: rec.scales,
        telemetry: rec.telemetry,
        probation: None,
        barriers: rec.barriers,
        rounds: Vec::new(),
    };
    st.merge_telemetry(TelemetryReport {
        events: vec![ControlEvent {
            gvt: (horizon > VirtualTime::ZERO).then_some(horizon.ticks()),
            lp: 0,
            object: 0,
            lvt: None,
            param: Param::Coordinator,
            old: rec.session as f64,
            new: session as f64,
            sampled_o: n_workers as f64,
        }],
        ..TelemetryReport::default()
    });
    run_cluster(cfg, start, st)
}

/// One coordinator session: distribute addresses and session lines,
/// establish the mesh, resume workers from the checkpoint store (when
/// past session 0), then pump frames to the end of the session.
fn run_session_as_coordinator(
    cfg: &DistConfig,
    workers: &mut [WorkerProc],
    deadline: Instant,
    admission: &Admission,
    st: &mut CoordState,
) -> Result<SessionEnd, DistError> {
    // The mesh is sized by the *current* membership, not the starting
    // config — elastic scales change it between sessions.
    let session = st.session;
    let n_procs = st.assign.n_workers() + 1;
    let listener = bind_loopback()?;
    let coord_addr = listener.local_addr()?;

    let mut peers: Vec<(u32, String)> = vec![(0, coord_addr.to_string())];
    for (i, w) in workers.iter_mut().enumerate() {
        let addr = w
            .pending_listen
            .take()
            .expect("await_listen collected every listen address");
        peers.push((i as u32 + 1, addr));
    }
    let session_line = Control::Session(SessionLine {
        session,
        peers,
        connect_ms: remaining_ms(deadline),
        assignment: st.assign.owners().to_vec(),
        n_procs,
    });
    for (i, w) in workers.iter_mut().enumerate() {
        let proc_id = i as u32 + 1;
        let link = w.link.as_mut().expect("await_listen paired every worker");
        let died = |e: io::Error| DistError::Worker {
            proc_id,
            detail: format!("died before reading its control message: {e}"),
        };
        if w.fresh {
            let init = Control::Init(WorkerInit {
                proc_id,
                n_lps: cfg.n_lps,
                model: cfg.model.clone(),
                net: cfg.net.clone(),
                recovery: cfg.recovery.enabled,
                balance: cfg.cluster.armed(),
                fault: cfg.fault.clone(),
            });
            link.send(&init).map_err(died)?;
            w.fresh = false;
        }
        link.send(&session_line).map_err(died)?;
    }

    let mesh_cfg = cfg.net.mesh_config(
        0,
        n_procs,
        session,
        remaining_ms(deadline),
        cfg.fault.clone(),
    );
    let mesh = TcpMesh::establish(mesh_cfg, listener, &[], |_| None)?;

    if session > 0 {
        // Stream each worker the images of its LPs as a ResumeChunk
        // sequence: a large model's images must never have to fit one
        // frame.
        let chunk = resume_chunk_len(&cfg.net);
        for w in 1..n_procs {
            let payload = st.store.resume_payload(&st.assign, w);
            st.store.stats.resume_bytes += payload.len() as u64;
            st.store.stats.resume_chunks +=
                send_resume_chunks(&mesh, w, session, st.store.horizon, &payload, chunk);
        }
    }

    let end = coordinate(&mesh, cfg, deadline, admission, st);
    // Only a finished session says `Bye`. Any other end drops the links:
    // every worker sees proc 0 go uncleanly, aborts its LPs and announces
    // a fresh listener, as after any loss.
    match &end {
        Ok(SessionEnd::Finished(_)) => mesh.shutdown(),
        _ => mesh.abort(),
    }
    end
}

/// Payload bytes per [`Frame::ResumeChunk`]: 1/64 of the frame cap, at
/// most 1 MiB (the share it is of the protocol's 64 MiB default). A
/// worker's image set reached the coordinator in one `Snapshot` frame
/// under the same cap, and its resume hands back that set or more, so a
/// chunk of nearly the whole cap would stream a resume as one chunk
/// unless LPs had moved; a fixed share of the cap streams it in as many
/// chunks under any cap, and leaves the chunk frame's envelope (tag,
/// session, gvt, seq/last, length prefixes) room to spare.
fn resume_chunk_len(net: &NetTuning) -> usize {
    (net.frame_cap() / 64).min(1 << 20)
}

/// Stream one worker's resume payload as an ordered `ResumeChunk`
/// sequence. Returns the number of chunks sent — always at least one,
/// because the final chunk's `last` marker is what releases the worker.
fn send_resume_chunks(
    mesh: &TcpMesh,
    to: u32,
    session: u32,
    gvt: VirtualTime,
    payload: &[u8],
    chunk: usize,
) -> u64 {
    let mut seq = 0u32;
    let mut off = 0usize;
    loop {
        let end = (off + chunk).min(payload.len());
        let last = end == payload.len();
        mesh.send(
            to,
            Frame::ResumeChunk {
                session,
                gvt,
                seq,
                last,
                payload: payload[off..end].to_vec(),
            },
        );
        seq += 1;
        off = end;
        if last {
            return seq as u64;
        }
    }
}

/// Pump the mesh until every worker has reported and said goodbye,
/// driving the checkpoint protocol off `Progress` notifications along
/// the way. An unclean peer loss ends the session (not the run).
///
/// A GVT-stall watchdog (armed by [`RecoveryPolicy::stall_budget_ms`])
/// runs alongside: if the committed horizon stops advancing while
/// reports are still outstanding, the session is declared livelocked
/// and ends as a lost worker ([`Regroup::Lost`]) — the same recovery
/// path a crash takes, so the cluster regroups under a fresh session
/// epoch.
fn coordinate(
    mesh: &TcpMesh,
    cfg: &DistConfig,
    deadline: Instant,
    admission: &Admission,
    st: &mut CoordState,
) -> Result<SessionEnd, DistError> {
    fn lost(peer: u32, detail: String) -> SessionEnd {
        SessionEnd::Regroup(Regroup::Lost { peer, detail })
    }
    let n_workers = st.assign.n_workers() as usize;
    let mut reports: Vec<Option<WorkerReport>> = (0..n_workers).map(|_| None).collect();
    let mut closed = vec![false; n_workers];
    let mut pending: Option<PendingCkpt> = None;
    let mut last_ckpt_started = Instant::now() - Duration::from_secs(3600);
    // Ask for a checkpoint: only the worker hosting the controller LP
    // hears of it, and the GVT round that LP tags sets the horizon.
    let request_ckpt = |st: &mut CoordState| {
        let ckpt = st.store.next_ckpt;
        st.store.next_ckpt += 1;
        mesh.send(st.assign.proc_of(0), Frame::SnapshotReq { ckpt });
        PendingCkpt::new(ckpt, n_workers)
    };
    // The cluster loop. A fresh controller per session doubles as the
    // cooldown after a plan or a recovery; the per-run budgets carry
    // across sessions as what is left of them (fallback evictions count
    // against the scale budget, which is what stops a crash-looping
    // admission from retrying forever). One plan per session: the
    // controller is dropped once it has proposed one.
    let policy = ClusterPolicy {
        max_migrations: cfg
            .cluster
            .max_migrations
            .saturating_sub(st.migrations.len() as u32),
        max_scales: cfg
            .cluster
            .max_scales
            .saturating_sub(st.scales.len() as u32),
        ..cfg.cluster.clone()
    };
    let mut controller =
        (cfg.recovery.enabled && policy.armed()).then(|| ClusterController::new(policy, cfg.n_lps));
    // One GVT round's worth of per-LP load reports, bucketed by gvt. A
    // report from a newer round discards any incomplete older bucket.
    let mut loads: Vec<Option<LpLoad>> = vec![None; cfg.n_lps as usize];
    let mut load_gvt: Option<VirtualTime> = None;
    // The plan the controller proposed, waiting on its checkpoint
    // barrier before the session can be ended on purpose.
    let mut planned: Option<Regroup> = None;
    let mut barrier_fired = false;
    let stall_budget = (cfg.recovery.enabled && cfg.recovery.stall_budget_ms > 0)
        .then(|| Duration::from_millis(cfg.recovery.stall_budget_ms));
    let mut last_gvt_advance = Instant::now();
    let mut best_gvt: Option<VirtualTime> = None;
    // Latest GVT each worker has announced — the blame heuristic when
    // the watchdog fires (the least-advanced worker is the likeliest
    // wedge point; recovery regroups everyone regardless).
    let mut worker_gvt: Vec<Option<VirtualTime>> = vec![None; n_workers];

    loop {
        if reports.iter().all(Option::is_some) && closed.iter().all(|&c| c) {
            return Ok(SessionEnd::Finished(
                reports.into_iter().map(Option::unwrap).collect(),
            ));
        }
        if Instant::now() >= deadline {
            let missing: Vec<u32> = reports
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_none())
                .map(|(i, _)| i as u32 + 1)
                .collect();
            return Err(DistError::Timeout(format!(
                "still waiting on workers {missing:?} at the deadline"
            )));
        }
        if let Some(budget) = stall_budget {
            // Only while reports are outstanding: after the last report
            // the run is winding down and GVT has nowhere left to go.
            let stalled =
                reports.iter().any(Option::is_none) && last_gvt_advance.elapsed() >= budget;
            if stalled {
                let peer = worker_gvt
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.unwrap_or(VirtualTime::ZERO))
                    .map(|(i, _)| i as u32 + 1)
                    .unwrap_or(1);
                return Ok(lost(
                    peer,
                    format!(
                        "GVT stalled at {} for {}ms (budget {}ms): cluster is livelocked",
                        best_gvt.map_or_else(|| "-".into(), |g| g.to_string()),
                        last_gvt_advance.elapsed().as_millis(),
                        budget.as_millis()
                    ),
                ));
            }
        }
        // Drive a planned regroup (migration or scale): first a
        // checkpoint barrier so the images cover everything committed,
        // then end the session on purpose, the way every early end goes
        // (`run_session_as_coordinator` drops the mesh).
        if planned.is_some() && pending.is_none() {
            if barrier_fired {
                return Ok(SessionEnd::Regroup(planned.take().expect("checked above")));
            } else if best_gvt.is_some_and(|g| g.is_finite() && g > st.store.horizon) {
                last_ckpt_started = Instant::now();
                pending = Some(request_ckpt(st));
                barrier_fired = true;
            } else if st.store.horizon > VirtualTime::ZERO {
                // The horizon already sits at the frontier; there is
                // nothing new to capture before moving.
                barrier_fired = true;
            }
        }
        match mesh.recv_timeout(Duration::from_millis(50)) {
            Some(MeshEvent::Frame { from, frame }) => match frame {
                Frame::Report(bytes) => {
                    let report: WorkerReport = serde_json::from_slice(&bytes).map_err(|e| {
                        DistError::Protocol(format!("bad report from proc {from}: {e}"))
                    })?;
                    reports[from as usize - 1] = Some(report);
                    // A report is definite progress: the sender saw ∞.
                    last_gvt_advance = Instant::now();
                    // The run is winding down; migrating or scaling now
                    // would only throw away finished work.
                    planned = None;
                    controller = None;
                }
                Frame::Telemetry(bytes) => {
                    // Advisory stream; a batch that fails to parse is
                    // dropped, never fatal.
                    if let Ok(batch) = serde_json::from_slice::<TelemetryReport>(&bytes) {
                        st.merge_telemetry(batch);
                    }
                }
                Frame::Progress { gvt } => {
                    worker_gvt[from as usize - 1] = Some(gvt);
                    if best_gvt.is_none_or(|b| gvt > b) {
                        best_gvt = Some(gvt);
                        last_gvt_advance = Instant::now();
                    }
                    if !gvt.is_finite() {
                        // GVT = ∞: reports are imminent; stand down.
                        planned = None;
                        controller = None;
                    }
                    let due = cfg.recovery.enabled
                        && gvt.is_finite()
                        && gvt > st.store.horizon
                        && pending.is_none()
                        && last_ckpt_started.elapsed()
                            >= Duration::from_millis(cfg.recovery.ckpt_min_interval_ms);
                    if due {
                        last_ckpt_started = Instant::now();
                        pending = Some(request_ckpt(st));
                    }
                }
                Frame::LoadReport {
                    gvt,
                    lp,
                    executed,
                    rolled_back,
                    retained,
                    lvt_lead,
                } => {
                    // Advisory, like telemetry: a malformed or stale
                    // report is dropped, never fatal.
                    let Some(ctl) = controller.as_mut() else {
                        continue;
                    };
                    let stale = load_gvt.is_some_and(|g| gvt < g); // from an old round
                    if !gvt.is_finite() || lp as usize >= loads.len() || stale {
                        continue;
                    }
                    if load_gvt != Some(gvt) {
                        load_gvt = Some(gvt);
                        loads.fill(None);
                    }
                    loads[lp as usize] = Some(LpLoad {
                        executed,
                        rolled_back,
                        retained,
                        lvt_lead,
                    });
                    let Some(loads) = loads.iter().copied().collect::<Option<Vec<LpLoad>>>() else {
                        continue;
                    };
                    let can_add = cfg.cluster.spawn || admission.joiners_waiting();
                    let plan = ctl.observe(&st.assign, &loads, can_add);
                    if cfg.telemetry {
                        st.rounds.push(LoadRound {
                            session: st.session,
                            gvt: gvt.ticks(),
                            owners: st.assign.owners().to_vec(),
                            can_add,
                            loads,
                            plan: plan.clone(),
                        });
                    }
                    if let Some(plan) = plan {
                        planned = Some(Regroup::Plan(plan));
                        barrier_fired = false;
                        controller = None;
                    }
                }
                Frame::Snapshot { ckpt, gvt, payload } => {
                    // A part of an abandoned checkpoint is stale traffic.
                    let Some(p) = pending.as_mut().filter(|p| p.ckpt == ckpt) else {
                        continue;
                    };
                    let Some(horizon) = p.accept(from, gvt, payload)? else {
                        continue;
                    };
                    let done = pending.take().unwrap();
                    let parts = done.parts.into_iter().map(Option::unwrap).collect();
                    // Every LP's image is replaced, then the segment
                    // file takes them with the barrier count.
                    st.store.commit(horizon, parts, &st.assign)?;
                    st.barriers += 1;
                    st.persist()?;
                    // Die like a killed coordinator — no goodbye
                    // — *between* barriers, after this one
                    // committed. Exact equality, so a
                    // resumed coordinator that inherits the plan
                    // from the stored job (which restores
                    // `barriers` at N) never re-crashes.
                    if cfg
                        .fault
                        .as_ref()
                        .is_some_and(|f| f.crashes_coordinator(st.barriers))
                    {
                        std::process::abort();
                    }
                }
                other => {
                    return Err(DistError::Protocol(format!(
                        "coordinator received unexpected {other:?} from proc {from}"
                    )));
                }
            },
            Some(MeshEvent::PeerDown {
                peer,
                clean,
                detail,
            }) => {
                if clean && reports[peer as usize - 1].is_some() {
                    closed[peer as usize - 1] = true;
                } else {
                    return Ok(lost(
                        peer,
                        if clean {
                            "closed cleanly without sending its report".into()
                        } else {
                            detail
                        },
                    ));
                }
            }
            None => {}
        }
    }
}

/// Before every session: wait until each worker has announced the
/// listener it will join the mesh on. A child first has to dial in: its
/// `Join` names its pid and pairs it with its slot. A survivor of the last
/// session re-announces; a child that died in it is a crash corpse, reaped
/// and respawned. A process that dies before its first announcement, or
/// one that dialed in on its own and whose control socket closes, is an
/// error naming it.
fn await_listen(
    cfg: &DistConfig,
    admission: &Admission,
    workers: &mut [WorkerProc],
    deadline: Instant,
) -> Result<(), DistError> {
    // How often a wait looks up from the socket to reap a dead child.
    const POLL: Duration = Duration::from_millis(5);
    for (i, w) in workers.iter_mut().enumerate() {
        let proc_id = i as u32 + 1;
        while w.pending_listen.is_none() {
            if let Some(c) = &mut w.child {
                if matches!(c.try_wait(), Ok(Some(_))) {
                    if w.fresh {
                        return Err(DistError::Worker {
                            proc_id,
                            detail: "exited before announcing its listen address".into(),
                        });
                    }
                    *w = admission.spawn(&cfg.worker_bin, proc_id)?;
                    continue;
                }
            }
            if Instant::now() >= deadline {
                return Err(DistError::Timeout(format!(
                    "worker (proc {proc_id}) never announced its listen address"
                )));
            }
            let Some(link) = &mut w.link else {
                let pid = w.child.as_ref().map(Child::id);
                let mine = |hello: &Frame, _: &HashSet<u32>| match *hello {
                    Frame::Join { pid: p, .. } => Some(p) == pid,
                    _ => false,
                };
                w.link = admission.take(POLL, mine).map(|(_, link)| link);
                continue;
            };
            match link.recv(Some(POLL)) {
                Ok(Some(Control::Listen(addr))) => w.pending_listen = Some(addr),
                // Anything but the announcement is ignored.
                Ok(_) => {}
                // A process that dialed in on its own is gone for good
                // once its control socket closes: there is no binary to
                // respawn.
                Err(_) if w.child.is_none() => {
                    return Err(DistError::Worker {
                        proc_id,
                        detail: "joined worker closed its control socket".into(),
                    })
                }
                // A child whose socket closed is exiting: reap it next.
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }
    Ok(())
}

/// The run's report: the workers' final reports merged with what the
/// coordinator kept across sessions.
fn merge_reports(reports: Vec<WorkerReport>, wall: f64, mut st: CoordState) -> RunReport {
    if !st.rounds.is_empty() {
        let rounds = std::mem::take(&mut st.rounds);
        st.merge_telemetry(TelemetryReport {
            rounds,
            ..TelemetryReport::default()
        });
    }
    let mut resume = st.store.stats;
    for r in &reports {
        resume.merge(&r.resume);
    }
    let gvt_rounds = reports.iter().map(|r| r.gvt_rounds).max().unwrap_or(0);
    let worker_peak_rss_kb = reports.iter().map(|r| r.peak_rss_kb).collect();
    let worker_link_writes = reports.iter().map(|r| r.link_writes).collect();
    let mut per_lp: Vec<LpSummary> = reports.into_iter().flat_map(|r| r.per_lp).collect();
    per_lp.sort_by_key(|s| s.lp);

    let mut kernel = ObjectStats::default();
    let mut comm = CommStats::default();
    let mut committed = 0u64;
    for s in &per_lp {
        committed += s.kernel.net_executed();
        kernel.merge(&s.kernel);
        comm.merge(&s.comm);
    }

    RunReport {
        timeline: Vec::new(),
        executive: "distributed".into(),
        completion_seconds: wall,
        wall_seconds: wall,
        committed_events: committed,
        events_per_second: if wall > 0.0 {
            committed as f64 / wall
        } else {
            0.0
        },
        gvt_rounds,
        kernel,
        comm,
        per_lp,
        recoveries: st.recoveries,
        migrations: st.migrations,
        scales: st.scales,
        telemetry: st.telemetry.filter(|t| !t.is_empty()),
        worker_peak_rss_kb,
        worker_link_writes,
        resume,
    }
}

/// Path of the segment file inside a checkpoint store directory
/// (`images.seg`) — the layout [`RecoveryPolicy::store_dir`] writes.
pub fn checkpoint_segment_path(dir: &Path) -> PathBuf {
    segment_path(dir)
}

/// Read back the on-disk checkpoint segment: the horizon recorded in its
/// header, plus every LP's image of it. For audit tooling and tests; a
/// truncated, corrupted, or foreign file is a typed error (formatted),
/// never a silently shorter set. The format is documented in
/// `docs/recovery-store.md`.
pub fn load_checkpoint_segment(path: &Path) -> Result<(VirtualTime, Vec<Vec<u8>>), String> {
    let seg = load_segment(path).map_err(|e| e.to_string())?;
    Ok((seg.horizon, seg.images))
}

fn remaining_ms(deadline: Instant) -> u64 {
    deadline
        .saturating_duration_since(Instant::now())
        .as_millis() as u64
}

fn kill_all(children: &mut [WorkerProc]) {
    for w in children.iter_mut() {
        w.kill();
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Process-wide execution rate limiter for a [`warp_net::ProcFault::Slow`]:
/// a minimum gap between executed events across *all* of a worker's LP
/// threads, so a slowed worker models a genuinely slow machine. Replay
/// during a restore is not throttled (the port's `throttle` hook only
/// fires in the batch loop).
///
/// An optional **event budget** makes the slowdown transient: only the
/// first `n` paced events sleep, then the worker runs at full speed.
/// The counter lives in the worker's session loop, not the session, so
/// a recovery or an elastic scale never re-arms a spent slowdown —
/// exactly what a scale-out-then-back-in experiment needs.
struct EventThrottle {
    gap: Duration,
    next: Mutex<Instant>,
    /// Remaining paced events (`None` = unlimited).
    budget: Option<AtomicU64>,
}

impl EventThrottle {
    fn new(gap_us: u64, budget_events: u64) -> Self {
        EventThrottle {
            gap: Duration::from_micros(gap_us),
            next: Mutex::new(Instant::now()),
            budget: (budget_events > 0).then(|| AtomicU64::new(budget_events)),
        }
    }

    /// Claim the next execution slot, sleeping outside the lock.
    fn pace(&self) {
        if let Some(budget) = &self.budget {
            let mut cur = budget.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
                    return; // slowdown spent: full speed from here on
                }
                match budget.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        let wake = {
            let mut next = self.next.lock().unwrap();
            let at = (*next).max(Instant::now());
            *next = at + self.gap;
            at
        };
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
}

/// Where a worker delivers a packet for one global LP id.
#[derive(Clone, Copy)]
enum Slot {
    /// A co-resident LP: its endpoint in the session's lane mesh.
    Lane(usize),
    /// An LP of another process (the owner's mesh proc id): the packet
    /// goes out as a frame.
    Remote(u32),
}

/// An LP's transport inside a worker process: its endpoint in the
/// session's SPSC lane mesh — the transport `run_threaded` uses — for
/// co-resident LPs, a frame this thread stages or posts to the TCP mesh,
/// addressed to the owning process, for everything else; the LP loop
/// decides when staged frames are written ([`WriteRule`]). Peer
/// workers' frames reach the lane when some thread of this process
/// pumps their links (`route_data`) — this one when its lane is empty,
/// or when a frame wakes it from a park — checkpoint and abort packets
/// from the session thread. Dropping the port, when the LP thread ends
/// or unwinds, sends the session thread its exit wake.
struct WorkerPort {
    lp: u32,
    lane: LaneEndpoint<Packet>,
    /// LPs of this worker (the lane mesh also holds the session
    /// thread's and the peer links' endpoints).
    n_local: usize,
    /// Dense, by global LP id; shared by the session's ports and links.
    slot_of: Arc<[Slot]>,
    mesh_tx: MeshSender,
    /// Empty inbox checks left before the next pump of the peer links.
    skip: Cell<usize>,
    /// Checks skipped after the last empty pump: doubles with each empty
    /// pump up to a pass ([`BATCH`]), back to 0 when a byte arrives.
    backoff: Cell<usize>,
    /// When the staged data frames are written.
    writes: WriteRule,
    /// The peer links' sockets, rebuilt at each park (reused, so parks
    /// allocate nothing once it has grown).
    watch: RefCell<Vec<PollFd>>,
    /// Stream per-LP load reports to the coordinator at GVT rounds.
    balance: bool,
    /// Artificial slowdown shared by every LP thread in this process.
    throttle: Option<Arc<EventThrottle>>,
}

impl WorkerPort {
    fn new(
        lp: u32,
        lane: LaneEndpoint<Packet>,
        n_local: usize,
        slot_of: Arc<[Slot]>,
        mesh_tx: MeshSender,
        balance: bool,
        throttle: Option<Arc<EventThrottle>>,
    ) -> Self {
        WorkerPort {
            lp,
            lane,
            n_local,
            slot_of,
            mesh_tx,
            skip: Cell::new(0),
            backoff: Cell::new(0),
            writes: WriteRule::default(),
            watch: RefCell::new(Vec::new()),
            balance,
            throttle,
        }
    }

    /// Write every link's staged frames (or leave them to the thread
    /// writing that link, which takes them along).
    fn write_links(&self) {
        self.mesh_tx.flush();
        self.writes.wrote();
    }

    /// Pump the peer links and restart or extend the backoff; write what
    /// is staged if the write rule says so. True if any byte arrived.
    fn pump(&self) -> bool {
        let read = self.mesh_tx.pump();
        if self.writes.pump_writes() {
            self.write_links();
        }
        let backoff = if read {
            0
        } else {
            (self.backoff.get() * 2).clamp(1, BATCH)
        };
        self.backoff.set(backoff);
        self.skip.set(backoff);
        read
    }
}

impl LpPort for WorkerPort {
    fn id(&self) -> usize {
        self.lp as usize
    }
    fn n_total(&self) -> usize {
        self.slot_of.len()
    }
    fn n_local(&self) -> usize {
        self.n_local
    }
    fn send(&self, to: usize, p: Packet) {
        match self.slot_of[to] {
            // A send to an LP that already shut down parks in its lane
            // (it can only concern committed history).
            Slot::Lane(lane) => self.lane.send(lane, p),
            Slot::Remote(proc) => {
                let frame = match p {
                    // Staged, anti-messages too: the write rule decides
                    // when it is written. The link stamps the real
                    // per-link sequence.
                    Packet::Data { msg, epoch } => {
                        self.writes.staged(&msg);
                        let frame = Frame::Data { seq: 0, epoch, msg };
                        return self.mesh_tx.stage(proc, frame);
                    }
                    Packet::Token(token) => Frame::Token {
                        dst_lp: to as u32,
                        token,
                    },
                    Packet::GvtNews { gvt, ckpt } => Frame::GvtNews {
                        dst_lp: to as u32,
                        gvt,
                        ckpt,
                    },
                    // Checkpoint requests and aborts are process-local
                    // by design; the LP loop never addresses them to a
                    // peer.
                    Packet::CkptReq(_) | Packet::Abort => return,
                };
                self.mesh_tx.post(proc, frame);
            }
        }
    }
    fn flush(&self, full: bool) {
        self.writes.pass_ended(full);
        self.write_links();
    }
    fn before_event(&self) {
        if self.writes.event_writes() {
            self.write_links();
        }
    }
    /// The lanes first; when they are empty, the peer links — unless
    /// the backoff says to skip this check. An empty non-blocking read is
    /// a syscall, many times a lane check, and the loop asks after every
    /// event.
    fn try_recv(&self) -> Option<Packet> {
        if let Some(p) = self.lane.try_recv() {
            return Some(p);
        }
        match self.skip.get() {
            0 => self.pump().then(|| self.lane.try_recv()).flatten(),
            n => {
                self.skip.set(n - 1);
                None
            }
        }
    }
    /// Pump the peer links, then park in one `ppoll` on the lanes'
    /// doorbell and the peer links' sockets: the first lane packet or
    /// frame byte ends the park, and a frame is pumped onto the lanes at
    /// once. (Pumping and yielding until the timeout instead cost
    /// `phold-dense` a quarter of its rate, `docs/hot-path.md` §6.)
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        self.pump();
        let mut watch = self.watch.borrow_mut();
        self.mesh_tx.watch(&mut watch);
        if let Some(p) = self.lane.recv_timeout_watching(timeout, &mut watch) {
            return Some(p);
        }
        let woke = watch.iter().any(PollFd::ready);
        (woke && self.pump())
            .then(|| self.lane.try_recv())
            .flatten()
    }
    fn note_gvt(&self, gvt: VirtualTime) {
        // Only the controller LP calls this; the coordinator paces the
        // checkpoint protocol off these notifications.
        self.mesh_tx.post(0, Frame::Progress { gvt });
    }
    /// A loopback `Snapshot` carrying this LP's image: the session
    /// thread collects the worker's images and assembles its image set,
    /// off the LP threads (`route_inbound`).
    fn ship_part(&self, ckpt: u32, gvt: VirtualTime, part: Vec<u8>) {
        let me = self.mesh_tx.proc_id();
        self.mesh_tx.post(
            me,
            Frame::Snapshot {
                ckpt,
                gvt,
                payload: part,
            },
        );
    }
    fn wants_telemetry(&self) -> bool {
        // Stream instead of accumulate: the recorder only exists when
        // the spec enabled telemetry, so an unconditional `true` costs
        // nothing on plain runs and keeps worker reports telemetry-free
        // (the coordinator merges the streamed batches instead).
        true
    }
    fn stream_telemetry(&self, json: Vec<u8>) {
        self.mesh_tx.post(0, Frame::Telemetry(json));
    }
    fn wants_load(&self) -> bool {
        self.balance
    }
    fn report_load(&self, gvt: VirtualTime, load: LpLoad) {
        self.mesh_tx.post(
            0,
            Frame::LoadReport {
                gvt,
                lp: self.lp,
                executed: load.executed,
                rolled_back: load.rolled_back,
                retained: load.retained,
                lvt_lead: load.lvt_lead,
            },
        );
    }
    fn throttle(&self) {
        if let Some(t) = &self.throttle {
            t.pace();
        }
    }
    /// No link thread is left to give the core to: the LP threads write
    /// and read the peer links themselves. What a yield still hands
    /// over on a host with no spare core is this process's other LP
    /// threads — and the peer process's, which are the ones that read
    /// what this LP just wrote and answer it. Without it the hop waits
    /// for the scheduler to preempt an LP, a slice (milliseconds) per
    /// hop, filled with speculation that rolls back; yielding every pass
    /// measured ahead of no yield on all four benchmark workloads
    /// (`docs/kernel-internals.md`, "Sharing cores with the transport").
    fn yield_core(&self) {
        std::thread::yield_now();
    }
}

impl Drop for WorkerPort {
    fn drop(&mut self) {
        // A loopback heartbeat: readers never surface real ones.
        self.mesh_tx.post(self.mesh_tx.proc_id(), Frame::Heartbeat);
    }
}

/// Entry point for a worker binary, the `--join ADDR` of `warp-worker`:
/// dial the coordinator's admission point at `coordinator`, present a
/// [`Frame::Join`] naming this process, announce a listener, and run
/// this process's share of the simulation — across as many sessions as
/// the coordinator asks for — over that one control socket. A child the
/// coordinator spawned is paired with its slot by the pid; any other
/// process idles in the admission queue until a scale-out adopts it. If
/// the coordinator exits first, the socket closes and the worker exits
/// on its own like any orphan.
///
/// `build` turns the coordinator's opaque model JSON into the
/// [`SimulationSpec`] — that is the only model knowledge in the whole
/// distributed machinery, and it lives in the binary, not this crate.
pub fn join_main(
    coordinator: &str,
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
) -> Result<(), String> {
    let hello = Frame::Join {
        version: PROTO_VERSION,
        pid: std::process::id(),
    };
    let mut link = ControlLink::dial(coordinator, &hello)
        .map_err(|e| format!("joining the coordinator at {coordinator}: {e}"))?;
    let listener = bind_loopback().map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let init = match link
        .send(&Control::Listen(addr.to_string()))
        .and_then(|()| link.recv(None))
    {
        Ok(Some(Control::Init(init))) => init,
        Err(e) if e.kind() != ErrorKind::InvalidData => {
            eprintln!("warp-worker: coordinator closed the control socket before init; exiting");
            std::process::exit(3);
        }
        other => return Err(format!("expected the worker init, got {other:?}")),
    };

    let spec = build(&init.model)?;
    let n_lps = spec.partition.n_lps() as u32;
    if n_lps != init.n_lps {
        return Err(format!(
            "coordinator expects {} LPs but the model builds {n_lps}",
            init.n_lps
        ));
    }
    run_worker(&init, spec, listener, link)
}

/// How a worker session ended.
enum WorkerSessionEnd {
    /// GVT reached ∞; the report is sent and the mesh closed cleanly.
    Finished,
    /// A peer — the coordinator, when it ends a session early for a
    /// regroup — went uncleanly, or a frame broke the protocol: the local
    /// LP threads are aborted and their state discarded. Says why.
    PeerLost(String),
}

/// Why a session ended with `peer` gone uncleanly, for the worker's log.
fn lost_peer(peer: u32, detail: &str) -> String {
    if peer == 0 {
        format!("ended by the coordinator ({detail})")
    } else {
        format!("lost proc {peer} ({detail})")
    }
}

/// What a worker process carries from one session to the next.
struct Carried {
    /// Resume accounting across every session, for the final report.
    resume_stats: ResumeStats,
    /// Writes on the peer-worker links of the sessions so far.
    link_writes: u64,
    /// The process's one throttle (its `Slow` fault): the event budget
    /// must not re-arm when a recovery or scale starts a new session.
    throttle: Option<Arc<EventThrottle>>,
}

impl Carried {
    fn new(init: &WorkerInit) -> Self {
        Carried {
            resume_stats: ResumeStats::default(),
            link_writes: 0,
            throttle: init
                .fault
                .as_ref()
                .and_then(|f| f.slowdown(init.proc_id))
                .map(|(gap_us, events)| Arc::new(EventThrottle::new(gap_us, events))),
        }
    }
}

/// The worker's life after bootstrap: run mesh sessions, each started by
/// a [`SessionLine`], until one finishes cleanly or a scale-in retires
/// this worker. On an unclean peer loss (the coordinator ends every
/// session that stops short of the finish that way) with recovery on,
/// the worker discards the session, announces a fresh listener, and
/// waits for the coordinator's next session line or its notice to
/// leave; without recovery it exits nonzero at once, because a Time Warp run
/// that lost a process cannot commit a correct history. A worker whose
/// coordinator is gone is an orphan and exits 3: a resumed coordinator
/// spawns its slot afresh.
fn run_worker(
    init: &WorkerInit,
    spec: SimulationSpec,
    mut listener: std::net::TcpListener,
    mut link: ControlLink,
) -> Result<(), String> {
    let mut carried = Carried::new(init);
    // The bootstrap announced the first listener before the init.
    let mut announced = true;
    loop {
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        // The coordinator needs time to notice, reap, and respawn; but
        // a coordinator that died will never write again — bound the
        // wait.
        let wait = init.net.orphan_wait();
        let heard = if std::mem::take(&mut announced) {
            link.recv(Some(wait))
        } else {
            link.send(&Control::Listen(addr))
                .and_then(|()| link.recv(Some(wait)))
        };
        let sl = match heard {
            Ok(Some(Control::Session(sl))) => sl,
            Ok(Some(Control::Retire)) => {
                log_line(format!(
                    "warp-worker (proc {}): retired by scale-in; exiting",
                    init.proc_id
                ));
                return Ok(());
            }
            other => {
                let why = match other {
                    Ok(None) => format!("no recovery instructions within {wait:?}"),
                    Err(e) if e.kind() != ErrorKind::InvalidData => "control socket closed".into(),
                    other => return Err(format!("expected a session line, got {other:?}")),
                };
                log_line(format!(
                    "warp-worker (proc {}): orphaned ({why}); exiting",
                    init.proc_id
                ));
                std::process::exit(3);
            }
        };
        let session = sl.session;
        let WorkerSessionEnd::PeerLost(why) =
            run_session_as_worker(init, &spec, &sl, listener, &mut carried)?
        else {
            return Ok(());
        };
        if !init.recovery {
            log_line(format!(
                "warp-worker (proc {}): session {session} {why}; exiting",
                init.proc_id
            ));
            std::process::exit(3);
        }
        log_line(format!(
            "warp-worker (proc {}): session {session} {why}; awaiting the next session",
            init.proc_id
        ));
        listener = bind_loopback().map_err(|e| format!("re-bind: {e}"))?;
    }
}

/// Write one finished line to stderr in one call. Workers share their
/// coordinator's stderr and often log at the same instant (a dead
/// coordinator's orphans, every worker at a regroup), and `eprintln!`
/// writes a line in pieces that a sibling's can split.
fn log_line(mut line: String) {
    line.push('\n');
    let _ = io::stderr().write_all(line.as_bytes());
}

/// One worker session: establish the mesh under the session epoch,
/// seed the LPs (fresh on session 0, or before any checkpoint; from
/// their images in the coordinator's streamed resume otherwise), run
/// them, and either report cleanly or abort.
fn run_session_as_worker(
    init: &WorkerInit,
    spec: &SimulationSpec,
    sl: &SessionLine,
    listener: std::net::TcpListener,
    carried: &mut Carried,
) -> Result<WorkerSessionEnd, String> {
    let assign = sl.owners(init.n_lps)?;
    let (session, n_procs) = (sl.session, sl.n_procs);
    let my_lps: Vec<u32> = assign.lps_of(init.proc_id);
    let peer_addrs: Vec<(u32, SocketAddr)> = sl
        .peers
        .iter()
        .filter(|(id, _)| *id < init.proc_id)
        .map(|(id, addr)| {
            addr.parse()
                .map(|a| (*id, a))
                .map_err(|e| format!("bad peer address {addr:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mesh_cfg = init.net.mesh_config(
        init.proc_id,
        n_procs,
        session,
        sl.connect_ms,
        init.fault.clone(),
    );
    // One lane mesh per session, built first so that each peer worker's
    // link hook can own an endpoint: the co-resident LPs' endpoints in
    // ascending global-id order, then this thread's, then one per peer
    // worker (the coordinator's link carries no LP traffic, so it keeps a
    // reader thread and no hook).
    let n_local = my_lps.len();
    let mut slot_of: Vec<Slot> = assign.owners().iter().map(|&p| Slot::Remote(p)).collect();
    for (lane, &lp) in my_lps.iter().enumerate() {
        slot_of[lp as usize] = Slot::Lane(lane);
    }
    let slot_of: Arc<[Slot]> = slot_of.into();
    let peer_workers = n_procs as usize - 2;
    let mut lanes = lane_mesh::<Packet>(n_local + 1 + peer_workers);
    let mut link_lanes = lanes.split_off(n_local + 1).into_iter();
    let session_lane = lanes.pop().expect("the session thread's endpoint");
    let mesh = TcpMesh::establish(mesh_cfg, listener, &peer_addrs, |peer| {
        if peer == 0 {
            return None;
        }
        let lane = link_lanes.next().expect("an endpoint per peer worker");
        let slot_of = Arc::clone(&slot_of);
        Some(Box::new(move |frame| route_data(&lane, &slot_of, frame)) as InboundHook)
    })
    .map_err(|e| format!("mesh establishment: {e}"))?;

    // A planned `CrashWorker`: die like a killed worker — no Bye, no
    // report — right after joining the mesh, before any resume seeds it.
    if init
        .fault
        .as_ref()
        .is_some_and(|f| f.crashes_worker(init.proc_id))
    {
        std::process::exit(9);
    }

    // Session > 0: wait for the coordinator's resume stream (other
    // peers may already be running and sending — their frames wait in
    // the lanes). The payload arrives as an ordered ResumeChunk sequence
    // reassembled here. The coordinator streams every resume before it
    // sends anything else, so on its FIFO link nothing else can come
    // first.
    let restore = if session > 0 {
        let wait = init.net.orphan_wait();
        let resume_deadline = Instant::now() + wait;
        let mut chunks: Vec<u8> = Vec::new();
        let mut next_seq = 0u32;
        loop {
            if Instant::now() >= resume_deadline {
                return Err(format!(
                    "no Resume within {wait:?} of joining session {session}"
                ));
            }
            match mesh.recv_timeout(mesh.tick()) {
                Some(MeshEvent::Frame {
                    frame:
                        Frame::ResumeChunk {
                            session: s,
                            gvt,
                            seq,
                            last,
                            payload,
                        },
                    ..
                }) => {
                    if s != session {
                        return Err(format!(
                            "ResumeChunk for session {s} inside session {session}"
                        ));
                    }
                    if seq != next_seq {
                        return Err(format!(
                            "ResumeChunk {seq} out of order in session {session} (expected {next_seq})"
                        ));
                    }
                    next_seq += 1;
                    chunks.extend_from_slice(&payload);
                    if last {
                        break Some((gvt, std::mem::take(&mut chunks)));
                    }
                }
                Some(MeshEvent::Frame { from, frame }) => {
                    mesh.abort();
                    return Ok(WorkerSessionEnd::PeerLost(format!(
                        "unexpected {frame:?} from proc {from} before the resume"
                    )));
                }
                Some(MeshEvent::PeerDown {
                    peer,
                    clean: false,
                    detail,
                }) => {
                    mesh.abort();
                    return Ok(WorkerSessionEnd::PeerLost(lost_peer(peer, &detail)));
                }
                Some(MeshEvent::PeerDown { .. }) | None => {}
            }
        }
    } else {
        None
    };

    // Seed this worker's LPs: fresh on session 0 and on a resume that
    // precedes the first checkpoint (an empty image set), from their
    // images otherwise. Each LP thread loads its own image, so this
    // thread reaches `route_inbound` — and the peer links' ticks — at
    // once. The restored frontier (sends at or beyond the horizon) ships
    // at LP-thread boot exactly like init output would.
    let (ckpt_base, mut images) = match restore {
        Some((horizon, payload)) => {
            let (h, set) = decode_image_set(&payload).map_err(|e| format!("resume: {e}"))?;
            if h != horizon || !(set.is_empty() || set.len() == my_lps.len()) {
                return Err(format!(
                    "resume of horizon {horizon} carries {} images of horizon {h} for {} LPs",
                    set.len(),
                    my_lps.len()
                ));
            }
            (
                Some(horizon),
                set.into_iter().collect::<HashMap<u32, Vec<u8>>>(),
            )
        }
        None => (init.recovery.then_some(VirtualTime::ZERO), HashMap::new()),
    };
    let mut seeds: Vec<(u32, LpSeed)> = Vec::with_capacity(my_lps.len());
    for &lp in &my_lps {
        let seed = match images.remove(&lp) {
            Some(image) => {
                carried.resume_stats.images_loaded += 1;
                LpSeed::Image(image)
            }
            None if images.is_empty() => LpSeed::Fresh,
            None => return Err(format!("resume carries no image of LP {lp}")),
        };
        seeds.push((lp, seed));
    }

    let lp_threads: Vec<_> = seeds
        .into_iter()
        .zip(lanes)
        .map(|((lp, seed), lane)| {
            let port = WorkerPort::new(
                lp,
                lane,
                n_local,
                Arc::clone(&slot_of),
                mesh.sender(),
                init.balance,
                carried.throttle.clone(),
            );
            let spec = spec.clone();
            std::thread::spawn(move || lp_thread(spec, port, seed, ckpt_base))
        })
        .collect();

    let end = route_inbound(&mesh, &session_lane, &slot_of, n_local);
    let mut outcomes: Vec<LpOutcome> = lp_threads
        .into_iter()
        .map(|h| h.join().expect("LP thread panicked"))
        .collect();
    carried.link_writes += (1..n_procs)
        .filter(|&peer| peer != init.proc_id)
        .map(|peer| mesh.link_writes(peer))
        .sum::<u64>();

    match end {
        WorkerSessionEnd::Finished => {
            outcomes.sort_by_key(|o| o.summary.lp);
            let report = WorkerReport {
                gvt_rounds: outcomes.iter().map(|o| o.gvt_rounds).max().unwrap_or(0),
                per_lp: outcomes.into_iter().map(|o| o.summary).collect(),
                resume: carried.resume_stats.clone(),
                peak_rss_kb: peak_rss_kb(),
                link_writes: carried.link_writes,
            };
            let bytes = serde_json::to_vec(&report).map_err(|e| format!("report encode: {e}"))?;
            mesh.send(0, Frame::Report(bytes));
            mesh.shutdown();
        }
        WorkerSessionEnd::PeerLost(_) => mesh.abort(),
    }
    Ok(end)
}

/// A peer worker's link hook, on whichever thread pumps the link: put a
/// `Data`, `Token` or `GvtNews` frame straight onto its LP's lane
/// through the link's own `lane` endpoint, and hand anything else back
/// to the session thread.
fn route_data(lane: &LaneEndpoint<Packet>, slot_of: &[Slot], frame: Frame) -> Option<Frame> {
    let (lp, p) = match frame {
        Frame::Data { msg, epoch, .. } => (msg.dst.0, Packet::Data { msg, epoch }),
        Frame::Token { dst_lp, token } => (dst_lp, Packet::Token(token)),
        Frame::GvtNews { dst_lp, gvt, ckpt } => (dst_lp, Packet::GvtNews { gvt, ckpt }),
        other => return Some(other),
    };
    if let Some(&Slot::Lane(to)) = slot_of.get(lp as usize) {
        lane.send(to, p); // finished LPs simply miss stale traffic
    }
    None
}

/// The session thread's loop. It turns the coordinator's checkpoint
/// request into a packet for the controller LP (LP 0) through this
/// thread's `lane`, collects the LPs' images of a tagged round into the
/// worker's one image set, and
/// counts the LPs' exit wakes until all `n_local` have stopped
/// (`Finished`). Between events it does the peer links' idle duties
/// (`TcpMesh::tick`: liveness, heartbeats) as often as the
/// mesh asks. LP traffic never comes here: whoever pumps a peer link
/// delivers it (`route_data`). A peer loss (the coordinator's, at a
/// regroup, included) or a protocol violation aborts every local LP and
/// ends the session at once.
fn route_inbound(
    mesh: &TcpMesh,
    lane: &LaneEndpoint<Packet>,
    slot_of: &[Slot],
    n_local: usize,
) -> WorkerSessionEnd {
    let fan_local = |p: &dyn Fn() -> Packet| {
        for to in 0..n_local {
            lane.send(to, p());
        }
    };
    let violation = |detail: String| {
        fan_local(&|| Packet::Abort);
        WorkerSessionEnd::PeerLost(format!("protocol violation: {detail}"))
    };
    let controller = match slot_of.first() {
        Some(&Slot::Lane(lane)) => Some(lane),
        _ => None,
    };
    // The images of the checkpoint under way. The coordinator asks for
    // the next one only once this one is complete everywhere, so its
    // images never mix with another's.
    let mut parts: Vec<Vec<u8>> = Vec::with_capacity(n_local);
    let mut handle = |from: u32, frame: Frame| -> Option<WorkerSessionEnd> {
        match frame {
            Frame::SnapshotReq { ckpt } => match controller {
                Some(lp0) => lane.send(lp0, Packet::CkptReq(ckpt)),
                None => {
                    return Some(violation(format!(
                        "SnapshotReq from proc {from}, but LP 0 is not here"
                    )))
                }
            },
            // An LP's image, looped back by its port: assembled here, so
            // no LP thread copies or writes the worker's image set.
            Frame::Snapshot { ckpt, gvt, payload } if from == mesh.proc_id() => {
                parts.push(payload);
                if parts.len() == n_local {
                    let payload = encode_image_set(gvt, &parts);
                    parts.clear();
                    mesh.send(0, Frame::Snapshot { ckpt, gvt, payload });
                }
            }
            other => return Some(violation(format!("unexpected {other:?} from proc {from}"))),
        }
        None
    };

    let mut running = n_local;
    while running > 0 {
        let Some(event) = mesh.recv_timeout(mesh.tick()) else {
            continue;
        };
        match event {
            // An LP thread's port dropped (see `WorkerPort`).
            MeshEvent::Frame {
                frame: Frame::Heartbeat,
                ..
            } => running -= 1,
            MeshEvent::Frame { from, frame } => {
                if let Some(end) = handle(from, frame) {
                    return end;
                }
            }
            MeshEvent::PeerDown {
                peer,
                clean: false,
                detail,
            } => {
                fan_local(&|| Packet::Abort);
                return WorkerSessionEnd::PeerLost(lost_peer(peer, &detail));
            }
            // Clean goodbyes while LPs still run mean the peer finished
            // its share after GVT = ∞; the link's hook put the ∞ news on
            // the lanes before the Bye was read, so nothing this process
            // still needs was lost.
            MeshEvent::PeerDown { .. } => {}
        }
    }
    WorkerSessionEnd::Finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};

    thread_local! {
        /// The largest single allocation this thread made since the last
        /// [`largest_alloc`].
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    struct Tracking;

    fn note(size: usize) {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the tracker is a
    // const-initialised thread-local `Cell` and never allocates.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: same layout the caller vouched for.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Tracking = Tracking;

    /// Run `f` and return the largest single allocation it made on this
    /// thread.
    fn largest_alloc<T>(f: impl FnOnce() -> T) -> usize {
        LARGEST.with(|l| l.set(0));
        drop(f());
        LARGEST.with(Cell::get)
    }

    /// A frame-shaped byte run: a length prefix that may or may not tell
    /// the truth, a tag that may or may not exist, and anything after it.
    fn dialer_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            prop_oneof![0u32..300, any::<u32>()],
            0u8..24,
            proptest::collection::vec(any::<u8>(), 0..256),
        )
            .prop_map(|(len, tag, body)| {
                let mut bytes = len.to_le_bytes().to_vec();
                bytes.push(tag);
                bytes.extend(body);
                bytes
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            .. ProptestConfig::default()
        })]

        /// Whatever a dialer sends, the admission handshake and the
        /// control-socket decoder yield a message or a typed error:
        /// never a panic, and never an allocation a claimed length asked
        /// for (prefixes reach 4 GiB here). The handshake allocates
        /// within what its 64-byte cap admits; the control decoder in
        /// proportion to the bytes it was given, far below its frame cap.
        #[test]
        fn control_socket_decoding_is_total(
            bytes in prop_oneof![
                dialer_bytes(),
                // A well-formed control frame around arbitrary JSON bytes.
                proptest::collection::vec(any::<u8>(), 0..256)
                    .prop_map(|json| Frame::Control(json).encode()),
            ],
            cut in 1usize..48,
        ) {
            let event = std::mem::size_of::<warp_core::Event>();
            let largest = largest_alloc(|| read_handshake(&mut &bytes[..]));
            prop_assert!(largest <= HANDSHAKE_CAP * event, "handshake allocated {largest} bytes");
            let largest = largest_alloc(|| {
                let mut dec = FrameDecoder::new();
                for chunk in bytes.chunks(cut) {
                    dec.push(chunk);
                    while let Ok(Some(_)) = next_control(&mut dec) {}
                }
            });
            let bound = 2 * (bytes.len() + 64) * event;
            prop_assert!(bound < warp_net::frame::MAX_FRAME_BYTES);
            prop_assert!(largest <= bound, "control decoder allocated {largest} bytes");
        }
    }

    /// LP 0 of a napper run with χ = 3, imaged at a mid-run horizon just
    /// as a worker images it: a snapshot, the inputs after it, and the
    /// send crossing the horizon.
    fn napper_image() -> (warp_core::LpRuntime, Vec<u8>) {
        let spec = napper_spec(40, Duration::ZERO, &Arc::new(AtomicU64::new(0)), 3);
        let (mut lp, mut out) = (spec.build_lp(warp_core::LpId(0)), Vec::new());
        lp.init(&mut out);
        lp.arm_recovery();
        for _ in 0..20 {
            lp.process_one(&mut out);
        }
        let image = lp.checkpoint(VirtualTime::new(18));
        (spec.build_lp(warp_core::LpId(0)), image)
    }

    #[test]
    fn an_image_decodes_to_what_it_encodes() {
        let (fresh, image) = napper_image();
        let decoded = crate::snapshot::decode_lp_image(&fresh, &image).unwrap();
        let o = &decoded.objects[0];
        let times: Vec<u64> = o.inputs.iter().map(|e| e.recv_time.ticks()).collect();
        assert_eq!(
            times,
            vec![15, 16, 17],
            "χ = 3: the snapshot's own event, then the rest"
        );
        assert_eq!(o.frontier.len(), 1, "the tick that lands on 18");
        assert_eq!(decoded.encode(), image);
        let lp1 = other_lp(&fresh);
        assert!(crate::snapshot::decode_lp_image(&lp1, &image).is_err());
    }

    /// A fresh build of the LP that is not `lp`, in the napper spec.
    fn other_lp(lp: &warp_core::LpRuntime) -> warp_core::LpRuntime {
        let spec = napper_spec(40, Duration::ZERO, &Arc::default(), 3);
        spec.build_lp(warp_core::LpId(1 - lp.id().0))
    }

    /// A segment file's bytes around `records` (job, state, images) of
    /// horizon `h`, each record with its true CRC.
    fn segment_bytes(h: u64, records: &[&[u8]]) -> Vec<u8> {
        let mut bytes = b"WSEG".to_vec();
        bytes.extend_from_slice(&crate::snapshot::store::SEG_VERSION.to_le_bytes());
        bytes.extend_from_slice(&h.to_le_bytes());
        for record in records {
            bytes.extend_from_slice(&(record.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crate::snapshot::store::crc32(record).to_le_bytes());
            bytes.extend_from_slice(record);
        }
        bytes
    }

    /// A coordinator state record as a two-worker run stores it.
    fn state_record() -> Vec<u8> {
        let rec = CoordJournal {
            session: 2,
            next_ckpt: 5,
            owners: vec![1, 1, 2, 2],
            n_workers: 2,
            recoveries: 1,
            barriers: 4,
            migrations: Vec::new(),
            scales: Vec::new(),
            stats: ResumeStats::default(),
            telemetry: None,
        };
        serde_json::to_vec(&rec).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 512,
            .. ProptestConfig::default()
        })]

        /// The image decoder, the segment loader and the state decoder
        /// are total: arbitrary bytes, or a real image or state record
        /// with bytes flipped, cut or appended — bare, in an image set,
        /// or in a segment file with true CRCs — a segment file itself
        /// flipped and torn, one whose job record is arbitrary bytes and
        /// one of version 2 give a value or a typed `SnapshotError`,
        /// never a panic. No single allocation exceeds a small multiple
        /// of the input, whatever the counts and lengths inside claim.
        #[test]
        fn image_and_segment_decoding_is_total(
            junk in proptest::collection::vec(any::<u8>(), 0..512),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            cut in any::<usize>(),
        ) {
            let (lp, image) = napper_image();
            let mut mutated = image.clone();
            for (at, x) in &flips {
                let i = at % mutated.len();
                mutated[i] ^= x;
            }
            mutated.truncate(cut % (mutated.len() + 1));
            mutated.extend_from_slice(&junk[..cut % (junk.len() + 1)]);
            let set = encode_image_set(VirtualTime::new(18), &[&mutated]);
            let mut state = state_record();
            for (at, x) in &flips {
                let i = at % state.len();
                state[i] ^= x;
            }
            state.truncate(cut % (state.len() + 1));
            let segment = segment_bytes(18, &[b"{}", &state, &image, &junk]);
            // The same segment torn and bit-flipped, as a crash or a bad
            // disk leaves it.
            let mut torn = segment.clone();
            for (at, x) in &flips {
                let i = at % torn.len();
                torn[i] ^= x;
            }
            torn.truncate(cut % (torn.len() + 1));
            // A job record of arbitrary bytes, and the same file as a
            // version-2 store wrote it.
            let foreign_job = segment_bytes(18, &[&junk, &state_record()]);
            let mut v2 = segment.clone();
            v2[4..8].copy_from_slice(&2u32.to_le_bytes());
            let inputs = [&junk[..], &mutated[..], &state[..], &set[..], &segment[..], &torn[..], &foreign_job[..], &v2[..]];
            for bytes in inputs {
                let largest = largest_alloc(|| {
                    let _ = crate::snapshot::decode_lp_image(&lp, bytes);
                    let _ = decode_image_set(bytes);
                    let _ = CoordJournal::decode(bytes);
                    if let Ok(seg) = crate::snapshot::store::parse_segment(bytes) {
                        let _ = CoordJournal::decode(&seg.state.unwrap_or_default());
                    }
                });
                let bound = 256 + 8 * bytes.len();
                prop_assert!(largest <= bound, "{} input bytes, one allocation of {largest}", bytes.len());
            }
            prop_assert!(CoordJournal::decode(&state_record()).is_ok());
            let parsed = crate::snapshot::store::parse_segment(&segment).unwrap();
            prop_assert_eq!(parsed.state.as_deref(), Some(&state[..]));
            prop_assert_eq!(
                crate::snapshot::store::parse_segment(&foreign_job).map(|s| s.job),
                String::from_utf8(junk.clone()).map_err(|e| SnapshotError::Corrupt(
                    format!("the job record is not UTF-8: {e}")
                ))
            );
            prop_assert_eq!(
                crate::snapshot::store::parse_segment(&v2),
                Err(SnapshotError::Version { found: 2 })
            );
        }
    }

    #[test]
    fn waiting_for_a_worker_to_leave_ends_at_the_deadline() {
        // A child is waited on through its control socket: one that hangs
        // with the socket open is given up at the deadline, and one that
        // closes it and exits nonzero is a failure naming it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let pair = || {
            let far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (ControlLink::new(listener.accept().unwrap().0), far)
        };
        let child = |script: &str| {
            Command::new("sh")
                .args(["-c", script])
                .spawn()
                .expect("spawn sh")
        };

        let (link, _held_open) = pair();
        let mut hung = WorkerProc {
            child: Some(child("sleep 30")),
            link: Some(link),
            fresh: false,
            pending_listen: None,
        };
        let t0 = Instant::now();
        let waited = hung.wait_success(3, t0 + Duration::from_millis(200));
        assert!(matches!(waited, Err(DistError::Timeout(_))), "{waited:?}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        hung.kill();

        let (link, far) = pair();
        drop(far);
        let mut crashed = WorkerProc {
            child: Some(child("exit 9")),
            link: Some(link),
            fresh: false,
            pending_listen: None,
        };
        let waited = crashed.wait_success(3, Instant::now() + Duration::from_secs(5));
        assert!(
            matches!(waited, Err(DistError::Worker { proc_id: 3, .. })),
            "{waited:?}"
        );
    }

    #[test]
    fn a_silent_dialer_holds_up_no_one() {
        // A dialer that connects and says nothing (a port scanner, or a
        // worker stalled before its `Join`), one whose length prefix is
        // garbage, and a parked worker of protocol v12 presenting its
        // re-admission handshake (the retired tag 20, then its last
        // session and slot): a real `Join` dialed after all three is
        // queued at once, and the other two are dropped.
        let cfg = DistConfig::new(
            1,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::Value::Null,
            2,
        );
        let admission = Admission::open(&cfg).unwrap();
        let dial = || TcpStream::connect(&admission.addr).unwrap();
        let _silent = dial();
        let mut garbage = dial();
        garbage.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut retired = 9u32.to_le_bytes().to_vec();
        retired.push(20);
        retired.extend_from_slice(&3u32.to_le_bytes());
        retired.extend_from_slice(&1u32.to_le_bytes());
        assert!(read_handshake(&mut &retired[..]).is_err());
        let mut parked = dial();
        parked.write_all(&retired).unwrap();
        let dialed = Instant::now();
        let hello = Frame::Join {
            version: PROTO_VERSION,
            pid: 0,
        };
        let _joiner = ControlLink::dial(&admission.addr, &hello).unwrap();
        let taken = admission.take(Duration::from_secs(1), is_joiner);
        assert!(
            matches!(taken, Some((Frame::Join { pid: 0, .. }, _))),
            "the Join was not queued within {:?}",
            dialed.elapsed()
        );
        for (who, mut dialer) in [("garbage", garbage), ("parked", parked)] {
            dialer
                .set_read_timeout(Some(Duration::from_secs(1)))
                .unwrap();
            match dialer.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("the {who} dialer is still connected: {other:?}"),
            }
        }
    }

    #[test]
    fn assignment_covers_all_lps() {
        for (n_lps, n_workers) in [(4u32, 2u32), (5, 2), (7, 3), (3, 3), (16, 4), (9, 4)] {
            let a = Assignment::contiguous(n_lps, n_workers).unwrap();
            let mut seen = Vec::new();
            for w in 1..=n_workers {
                for lp in a.lps_of(w) {
                    assert_eq!(a.proc_of(lp), w, "lp {lp} ({n_lps}/{n_workers})");
                    seen.push(lp);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n_lps).collect::<Vec<_>>());
        }
    }

    #[test]
    fn assignment_rejects_degenerate_shapes() {
        assert!(Assignment::contiguous(4, 0).is_err());
        assert!(Assignment::contiguous(2, 3).is_err());
    }

    #[test]
    fn worker_init_round_trips_as_json() {
        let init = WorkerInit {
            proc_id: 2,
            n_lps: 8,
            model: serde_json::json!("opaque"),
            net: NetTuning::default(),
            recovery: true,
            balance: true,
            fault: Some(FaultPlan::new().crash(2, 1, 100, 0).slow(2, 250, 5_000)),
        };
        let line = serde_json::to_string(&init).unwrap();
        let back: WorkerInit = serde_json::from_str(&line).unwrap();
        assert_eq!(back.proc_id, 2);
        assert_eq!(back.n_lps, 8);
        assert_eq!(back.model, init.model);
        assert_eq!(back.net.heartbeat_ms, 250);
        assert!(back.recovery);
        assert!(back.balance);
        let fault = back.fault.expect("fault plan survives the round trip");
        assert_eq!(fault.slowdown(2), Some((250, 5_000)));
        assert_eq!(fault, init.fault.unwrap());
    }

    #[test]
    fn session_line_without_an_assignment_is_refused() {
        // The coordinator writes every field; a line that lacks one
        // comes from no build that could pass `Hello`, and a missing
        // owner map must not quietly mean "contiguous".
        let line = serde_json::to_string(&SessionLine {
            session: 0,
            peers: vec![(0, "127.0.0.1:1".into())],
            connect_ms: 1000,
            assignment: vec![1; 4],
            n_procs: 2,
        })
        .unwrap();
        serde_json::from_str::<SessionLine>(&line).expect("the full line parses");
        let legacy = line.replace(r#""assignment":[1,1,1,1],"#, "");
        assert_ne!(legacy, line, "the owner map is gone from {legacy}");
        let err = serde_json::from_str::<SessionLine>(&legacy).unwrap_err();
        assert!(err.to_string().contains("assignment"), "{err}");
    }

    #[test]
    fn session_line_owner_map_must_cover_every_lp() {
        // Every session's map is checked against the run's LP count, the
        // first session's and every later one's alike.
        let sl = |session, assignment: Vec<u32>| SessionLine {
            session,
            peers: vec![(0, "127.0.0.1:1".into())],
            connect_ms: 1000,
            assignment,
            n_procs: 3,
        };
        let assign = sl(0, vec![1, 1, 2, 2]).owners(4).expect("a full map");
        assert_eq!(assign.lps_of(2), vec![2, 3]);
        let err = sl(5, vec![1, 2, 2]).owners(4).unwrap_err();
        assert!(err.contains("session 5 assignment covers 3 LPs"), "{err}");
        let err = sl(6, vec![1, 3, 2, 2]).owners(4).unwrap_err();
        assert!(err.contains("session 6 assignment"), "{err}");
    }

    #[test]
    fn session_line_round_trips_as_json() {
        let sl = SessionLine {
            session: 3,
            peers: vec![(0, "127.0.0.1:9".into())],
            connect_ms: 5_000,
            assignment: vec![2, 1, 1, 2],
            n_procs: 3,
        };
        let line = serde_json::to_string(&sl).unwrap();
        let back: SessionLine = serde_json::from_str(&line).unwrap();
        assert_eq!(back.session, 3);
        assert_eq!(back.peers, sl.peers);
        assert_eq!(back.assignment, vec![2, 1, 1, 2]);
        assert_eq!(back.n_procs, 3);
    }

    #[test]
    fn elastic_without_recovery_is_rejected() {
        let mut cfg = DistConfig::new(
            2,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            4,
        );
        cfg.cluster.workers = Some((1, 3));
        cfg.recovery.enabled = false;
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("recovery"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn elastic_bounds_must_bracket_the_initial_worker_count() {
        let mut cfg = DistConfig::new(
            1,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            4,
        );
        cfg.cluster.workers = Some((2, 3));
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("elastic bounds"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn elastic_widens_the_legal_handicap_range() {
        // Proc 3 does not exist at start, but the cluster may grow to
        // hold it — a slowdown naming it must pass validation (and the
        // run then fails on the missing binary, not the fault plan).
        let mut cfg = DistConfig::new(
            2,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            6,
        );
        cfg.cluster.workers = Some((1, 3));
        cfg.fault = Some(FaultPlan::new().slow(3, 500, 1000));
        match run_coordinator(&cfg) {
            Err(DistError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn balance_without_recovery_is_rejected() {
        let mut cfg = DistConfig::new(
            1,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            2,
        );
        cfg.cluster.max_migrations = 4;
        cfg.recovery.enabled = false;
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("recovery"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_handicap_is_rejected() {
        let mut cfg = DistConfig::new(
            2,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            4,
        );
        cfg.fault = Some(FaultPlan::new().slow(3, 500, 0));
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("proc 3, outside 1..=2"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn net_tuning_validation_catches_inconsistencies() {
        let ok = NetTuning::default();
        assert!(ok.validate().is_ok());
        let t = NetTuning {
            heartbeat_ms: 0,
            ..NetTuning::default()
        };
        assert!(t.validate().is_err());
        let t = NetTuning {
            liveness_ms: ok.heartbeat_ms,
            ..NetTuning::default()
        };
        assert!(t.validate().is_err());
        let t = NetTuning {
            max_frame_bytes: 512,
            ..NetTuning::default()
        };
        assert!(t.validate().is_err(), "512 is below the 1024-byte floor");
    }

    #[test]
    fn both_ends_of_a_link_get_the_same_timings_at_the_validation_edge() {
        let net = NetTuning {
            heartbeat_ms: 1,
            liveness_ms: 2,
            ..NetTuning::default()
        };
        assert!(net.validate().is_ok());
        let coordinator = net.mesh_config(0, 3, 2, 50, None);
        let worker = net.mesh_config(2, 3, 2, 50, None);
        for cfg in [&coordinator, &worker] {
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg.session, 2);
            assert_eq!(cfg.heartbeat_interval, Duration::from_millis(1));
            assert_eq!(cfg.liveness_timeout, Duration::from_millis(2));
            assert_eq!(cfg.connect_timeout, Duration::from_millis(100));
            assert_eq!(cfg.dial_backoff_start, Duration::from_millis(20));
            assert_eq!(cfg.dial_backoff_max, Duration::from_millis(500));
            assert_eq!(cfg.max_frame_bytes, warp_net::frame::MAX_FRAME_BYTES);
        }
        assert_eq!((coordinator.proc_id, worker.proc_id), (0, 2));
    }

    #[test]
    fn frame_cap_resolves_zero_to_the_protocol_default() {
        let t = NetTuning::default();
        assert_eq!(t.frame_cap(), warp_net::frame::MAX_FRAME_BYTES);
        let t = NetTuning {
            max_frame_bytes: 65536,
            ..NetTuning::default()
        };
        assert!(t.validate().is_ok());
        assert_eq!(t.frame_cap(), 65536);
    }

    #[test]
    fn resume_chunks_obey_the_frame_cap() {
        // Default: 1 MiB chunks under the default cap.
        assert_eq!(resume_chunk_len(&NetTuning::default()), 1 << 20);
        // A smaller frame cap makes the chunk the same share of it.
        let n = NetTuning {
            max_frame_bytes: 16384,
            ..NetTuning::default()
        };
        assert_eq!(resume_chunk_len(&n), 256);
    }

    #[test]
    fn legacy_recovery_policy_defaults_the_store_fields() {
        // A config line without the store field parses with the store
        // off, and one without a frame cap takes the protocol's.
        let raw =
            r#"{"enabled":true,"max_recoveries":3,"ckpt_min_interval_ms":100,"stall_budget_ms":0}"#;
        let p: RecoveryPolicy = serde_json::from_str(raw).unwrap();
        assert_eq!(p.store_dir, None);
        let raw = r#"{"heartbeat_ms":250,"liveness_ms":3000}"#;
        let t: NetTuning = serde_json::from_str(raw).unwrap();
        assert_eq!(t.max_frame_bytes, 0);
        assert_eq!(t.frame_cap(), warp_net::frame::MAX_FRAME_BYTES);
        // An orphan waits ten liveness timeouts, and never under 30 s.
        assert_eq!(t.orphan_wait(), Duration::from_secs(30));
        let t = NetTuning {
            liveness_ms: 5_000,
            ..NetTuning::default()
        };
        assert_eq!(t.orphan_wait(), Duration::from_secs(50));
    }

    #[test]
    fn checkpoint_parts_must_agree_on_the_horizon() {
        let vt = VirtualTime::new;
        let mut p = PendingCkpt::new(4, 2);
        assert!(matches!(p.accept(2, vt(9), vec![2]), Ok(None)));
        assert!(matches!(p.accept(1, vt(9), vec![1]), Ok(Some(h)) if h == vt(9)));
        assert_eq!(p.parts, vec![Some(vec![1]), Some(vec![2])]);

        let mut p = PendingCkpt::new(5, 2);
        assert!(matches!(p.accept(1, vt(9), vec![1]), Ok(None)));
        match p.accept(2, vt(8), vec![2]) {
            Err(DistError::Protocol(m)) => assert!(m.contains("horizon"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Images of horizon 10 for `n` LPs: a header over an empty body,
    /// all the coordinator's bookkeeping reads.
    fn images_of(n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|lp| {
                let mut w = warp_core::wire::PayloadWriter::new();
                w.u32(lp).u64(10);
                w.finish().into_vec()
            })
            .collect()
    }

    /// The LPs whose images each worker's resume carries.
    fn resume_lps(st: &CoordState) -> Vec<Vec<u32>> {
        (1..=st.assign.n_workers())
            .map(|w| {
                let (h, set) = decode_image_set(&st.store.resume_payload(&st.assign, w)).unwrap();
                assert_eq!(h, VirtualTime::new(10));
                set.into_iter().map(|(lp, _)| lp).collect()
            })
            .collect()
    }

    #[test]
    fn every_regroup_kind_takes_the_same_step() {
        // The coordinator's regroup bookkeeping on in-memory images, with
        // no process and no socket: each kind in turn.
        let owners = |owners: Vec<u32>| {
            let n = *owners.iter().max().unwrap();
            Assignment::from_owners(owners, n).unwrap()
        };
        let start = owners(vec![1, 1, 2, 2]);
        let mut st = CoordState {
            store: CkptStore {
                images: images_of(4),
                horizon: VirtualTime::new(10),
                next_ckpt: 1,
                segment: None,
                stats: ResumeStats::default(),
            },
            assign: start,
            session: 0,
            recoveries: 0,
            migrations: Vec::new(),
            scales: Vec::new(),
            telemetry: None,
            probation: None,
            barriers: 1,
            rounds: Vec::new(),
        };
        let recovery = RecoveryPolicy {
            max_recoveries: 2,
            ..RecoveryPolicy::default()
        };
        let mv = |lp, from, to| Move { lp, from, to };
        // The trajectory sorts by (gvt, lp), stably: a param's events at
        // one horizon stay in the order they were appended.
        let last_event = |st: &CoordState, param| {
            let events = &st.telemetry.as_ref().unwrap().events;
            let e = events.iter().rev().find(|e| e.param == param).unwrap();
            (e.gvt, e.lp, e.old, e.new, e.sampled_o)
        };
        let n_events = |st: &CoordState| st.telemetry.as_ref().map_or(0, |t| t.events.len());
        let last_scale = |st: &CoordState| {
            let r = st.scales.last().unwrap();
            let moved: Vec<u32> = r.moves.iter().map(|m| m.lp).collect();
            (
                r.direction.clone(),
                r.gvt,
                r.from_workers,
                r.to_workers,
                r.pressure,
                moved,
            )
        };
        let lost = |peer| Regroup::Lost {
            peer,
            detail: "gone".into(),
        };

        // Migration: LP 1 moves to worker 2.
        let plan = Plan {
            assignment: owners(vec![1, 2, 2, 2]),
            moves: vec![mv(1, 1, 2)],
            pressure: 0.7,
        };
        assert_eq!(
            st.regroup(Regroup::Plan(plan), &recovery).unwrap(),
            Membership::Keep
        );
        assert_eq!(resume_lps(&st), vec![vec![0], vec![1, 2, 3]]);
        let rec = &st.migrations[0];
        let moved: Vec<_> = rec.moves.iter().map(|m| (m.lp, m.from, m.to)).collect();
        assert_eq!(
            (rec.gvt, rec.imbalance, moved),
            (Some(10), 0.7, vec![(1, 1, 2)])
        );
        assert_eq!(n_events(&st), 1, "one Assignment event per move");
        assert_eq!(
            last_event(&st, Param::Assignment),
            (Some(10), 1, 1.0, 2.0, 0.7)
        );
        assert_eq!(
            (st.session, st.recoveries, st.probation.is_some()),
            (1, 0, false)
        );

        // Scale-out: worker 3 joins on probation and takes LPs 2 and 3.
        let out = Plan {
            assignment: owners(vec![1, 2, 3, 3]),
            moves: vec![mv(2, 2, 3), mv(3, 2, 3)],
            pressure: 0.9,
        };
        let membership = st.regroup(Regroup::Plan(out.clone()), &recovery).unwrap();
        assert_eq!(membership, Membership::Admit(3));
        assert_eq!(resume_lps(&st), vec![vec![0], vec![1], vec![2, 3]]);
        assert_eq!(
            last_scale(&st),
            ("out".into(), Some(10), 2, 3, 0.9, vec![2, 3])
        );
        assert_eq!(
            last_event(&st, Param::ClusterSize),
            (Some(10), 0, 2.0, 3.0, 0.9)
        );
        assert_eq!((st.session, st.recoveries), (2, 0));
        let (newbie, pre, _) = st.probation.clone().expect("the newcomer is on probation");
        assert_eq!((newbie, pre.owners()), (3, &[1, 2, 2, 2][..]));

        // Fallback: the newcomer is lost on probation; back to two
        // workers and the pre-scale owners, one recovery charged.
        assert_eq!(st.regroup(lost(3), &recovery).unwrap(), Membership::Evict);
        assert_eq!(resume_lps(&st), vec![vec![0], vec![1, 2, 3]]);
        assert_eq!(st.assign.owners(), &[1, 2, 2, 2]);
        assert_eq!(
            last_scale(&st),
            ("fallback".into(), Some(10), 3, 2, -1.0, vec![])
        );
        assert_eq!(
            last_event(&st, Param::ClusterSize),
            (Some(10), 0, 3.0, 2.0, -1.0)
        );
        assert_eq!(
            (st.session, st.recoveries, st.probation.is_some()),
            (3, 1, false)
        );

        // Out again, then a crash of another worker: one recovery, same
        // owners, no record, no event, and the newcomer stays on
        // probation.
        st.regroup(Regroup::Plan(out), &recovery).unwrap();
        let (placed, events, records) = (resume_lps(&st), n_events(&st), st.scales.len());
        assert_eq!(st.regroup(lost(1), &recovery).unwrap(), Membership::Keep);
        assert_eq!(resume_lps(&st), placed);
        assert_eq!(
            (n_events(&st), st.scales.len(), st.migrations.len()),
            (events, records, 1)
        );
        assert_eq!((st.session, st.recoveries), (5, 2));
        assert_eq!(st.probation.as_ref().map(|p| p.0), Some(3));

        // Scale-in: worker 3 retires and its LPs go back to worker 2.
        let inn = Plan {
            assignment: owners(vec![1, 2, 2, 2]),
            moves: vec![mv(2, 3, 2), mv(3, 3, 2)],
            pressure: 0.1,
        };
        assert_eq!(
            st.regroup(Regroup::Plan(inn), &recovery).unwrap(),
            Membership::Retire(3)
        );
        assert_eq!(resume_lps(&st), vec![vec![0], vec![1, 2, 3]]);
        assert_eq!(
            last_scale(&st),
            ("in".into(), Some(10), 3, 2, 0.1, vec![2, 3])
        );
        assert_eq!(
            last_event(&st, Param::ClusterSize),
            (Some(10), 0, 3.0, 2.0, 0.1)
        );
        assert_eq!(
            (st.session, st.recoveries, st.probation.is_some()),
            (6, 2, false)
        );

        // Past the budget, a crash ends the run instead.
        match st.regroup(lost(2), &recovery) {
            Err(DistError::Worker { proc_id: 2, detail }) => {
                assert!(
                    detail.contains("recovery budget of 2 exhausted"),
                    "{detail}"
                )
            }
            other => panic!("expected the budget to run out, got {other:?}"),
        }
        assert_eq!((st.session, st.recoveries), (6, 2));
    }

    #[test]
    fn missing_worker_binary_is_a_clean_error() {
        let cfg = DistConfig::new(
            1,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            2,
        );
        match run_coordinator(&cfg) {
            Err(DistError::Io(_)) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    /// Object 0 counts itself through `ticks` events, one per tick, each
    /// taking `nap` of wall time (counted in `naps`); object 1 idles.
    struct Napper {
        ticks: u64,
        nap: Duration,
        naps: Arc<AtomicU64>,
        count: Count,
    }

    #[derive(Clone, Debug)]
    struct Count(u64);
    impl warp_core::ObjectState for Count {
        fn encode(&self, w: &mut warp_core::wire::PayloadWriter) {
            w.u64(self.0);
        }
        fn decode(
            r: &mut warp_core::wire::PayloadReader<'_>,
        ) -> Result<Self, warp_core::KernelError> {
            Ok(Count(r.u64()?))
        }
    }

    impl warp_core::SimObject for Napper {
        fn init(&mut self, ctx: &mut dyn warp_core::ExecutionContext) {
            if ctx.me().0 == 0 {
                ctx.send(ctx.me(), 1, 0, warp_core::Payload::new());
            }
        }
        fn execute(&mut self, ctx: &mut dyn warp_core::ExecutionContext, _: &warp_core::Event) {
            if !self.nap.is_zero() {
                std::thread::sleep(self.nap);
                self.naps.fetch_add(1, Ordering::Relaxed);
            }
            self.count.0 += 1;
            if self.count.0 < self.ticks {
                ctx.send(ctx.me(), 1, 0, warp_core::Payload::new());
            }
        }
        fn state(&self) -> &dyn warp_core::DynState {
            &self.count
        }
        fn state_mut(&mut self) -> &mut dyn warp_core::DynState {
            &mut self.count
        }
    }

    /// Two objects on two LPs: object 0 counts itself through `ticks`
    /// events, each napping `nap`; object 1 idles. State saved every
    /// `chi` events.
    fn napper_spec(ticks: u64, nap: Duration, naps: &Arc<AtomicU64>, chi: u32) -> SimulationSpec {
        let naps = Arc::clone(naps);
        SimulationSpec::new(
            warp_core::Partition::round_robin(2, 2),
            Arc::new(move |_| {
                Box::new(Napper {
                    ticks,
                    nap,
                    naps: Arc::clone(&naps),
                    count: Count(0),
                }) as Box<dyn warp_core::SimObject>
            }),
        )
        .with_policies(Arc::new(move |_| {
            warp_core::ObjectPolicies::new(
                Box::new(warp_core::FixedCancellation(
                    warp_core::CancellationMode::Aggressive,
                )),
                Box::new(warp_core::FixedCheckpoint::new(chi)),
            )
        }))
    }

    #[test]
    fn a_restore_longer_than_liveness_keeps_the_peer_links_alive() {
        // Proc 1, the worker under test, owns LP 0 and is resumed from
        // LP 0's image. With χ above the run's length the image holds the
        // post-init snapshot and every input, so the restore coasts
        // through all of them, which takes several liveness timeouts.
        // Procs 0 (the coordinator) and 2 (the peer worker owning LP 1)
        // are bare meshes; neither may lose proc 1 meanwhile.
        const TICKS: u64 = 40;
        let nap = Duration::from_millis(25);
        let net = NetTuning {
            heartbeat_ms: 50,
            liveness_ms: 250,
            ..NetTuning::default()
        };
        let coast = nap * TICKS as u32;
        let liveness = Duration::from_millis(net.liveness_ms);
        assert!(coast > 3 * liveness);

        let napper = |nap, naps: &Arc<AtomicU64>| napper_spec(TICKS, nap, naps, 4 * TICKS as u32);
        let naps = Arc::new(AtomicU64::new(0));
        // LP 0's image of a horizon past its whole history, as the
        // coordinator's resume stream carries it.
        let horizon = VirtualTime::new(TICKS + 1);
        let payload = {
            let spec = napper(Duration::ZERO, &naps);
            let (mut lp, mut out) = (spec.build_lp(warp_core::LpId(0)), Vec::new());
            lp.init(&mut out);
            lp.arm_recovery();
            while lp.process_one(&mut out) {}
            encode_image_set(horizon, &[lp.checkpoint(horizon)])
        };
        let spec = napper(nap, &naps);

        let [l0, l1, l2] = [(); 3].map(|_| bind_loopback().unwrap());
        let addrs = [&l0, &l1, &l2].map(|l| l.local_addr().unwrap());
        let init = WorkerInit {
            proc_id: 1,
            n_lps: 2,
            model: serde_json::Value::Null,
            net: net.clone(),
            recovery: true,
            balance: false,
            fault: None,
        };
        let sl = SessionLine {
            session: 1,
            peers: (0..3).map(|p| (p, addrs[p as usize].to_string())).collect(),
            connect_ms: 10_000,
            assignment: vec![1, 2],
            n_procs: 3,
        };
        let worker = std::thread::spawn(move || {
            let mut carried = Carried::new(&init);
            let end = run_session_as_worker(&init, &spec, &sl, l1, &mut carried);
            let stats = carried.resume_stats;
            (end.unwrap(), stats)
        });
        let cfg = |proc_id| TcpMeshConfig {
            session: 1,
            heartbeat_interval: Duration::from_millis(net.heartbeat_ms),
            liveness_timeout: liveness,
            ..TcpMeshConfig::new(proc_id, 3)
        };
        let peer_cfg = cfg(2);
        let peer = std::thread::spawn(move || {
            TcpMesh::establish(peer_cfg, l2, &[(0, addrs[0]), (1, addrs[1])], |_| None).unwrap()
        });
        let coord = TcpMesh::establish(cfg(0), l0, &[], |_| None).unwrap();
        let peer = peer.join().unwrap();

        let resumed = Instant::now();
        coord.send(
            1,
            Frame::ResumeChunk {
                session: 1,
                gvt: horizon,
                seq: 0,
                last: true,
                payload,
            },
        );
        while resumed.elapsed() < coast + liveness {
            for (who, mesh) in [("coordinator", &coord), ("peer worker", &peer)] {
                if let Some(MeshEvent::PeerDown { peer, detail, .. }) =
                    mesh.recv_timeout(Duration::from_millis(5))
                {
                    panic!("the {who} lost proc {peer} during the restore: {detail}");
                }
            }
        }
        // The coordinator ends the session the one way it ends any
        // session early: it drops its links.
        coord.abort();
        let (end, stats) = worker.join().unwrap();
        let WorkerSessionEnd::PeerLost(why) = end else {
            panic!("the session finished instead of ending as a loss");
        };
        assert!(
            why.starts_with("ended by the coordinator"),
            "the session must end as the coordinator's loss: {why}"
        );
        assert_eq!(stats.images_loaded, 1);
        assert_eq!(
            naps.load(Ordering::Relaxed),
            TICKS,
            "the restore coasted through every input at full speed"
        );
        peer.abort();
    }

    /// The port of LP 0, parked on worker proc 1 of a two-process mesh,
    /// whose proc 0 — a bare mesh with a reader thread — owns LP 2; LP 1
    /// is co-resident. Heartbeats are 10 s apart, so nothing reaches the
    /// socket that a test does not write. Returns the port, LP 1's and
    /// the session thread's lane endpoints, and both meshes.
    fn parked_port() -> (WorkerPort, [LaneEndpoint<Packet>; 2], TcpMesh, TcpMesh) {
        let cfg = |proc_id| TcpMeshConfig {
            heartbeat_interval: Duration::from_secs(10),
            liveness_timeout: Duration::from_secs(30),
            ..TcpMeshConfig::new(proc_id, 2)
        };
        let [l0, l1] = [(); 2].map(|_| bind_loopback().unwrap());
        let addr0 = l0.local_addr().unwrap();
        let peer = std::thread::spawn(move || TcpMesh::establish(cfg(0), l0, &[], |_| None));
        let slot_of: Arc<[Slot]> = vec![Slot::Lane(0), Slot::Lane(1), Slot::Remote(0)].into();
        // LP 0, LP 1, the session thread, the link to proc 0.
        let [lp0, lp1, session, link] = <[_; 4]>::try_from(lane_mesh::<Packet>(4)).ok().unwrap();
        let mut hook = Some((link, Arc::clone(&slot_of)));
        let mesh = TcpMesh::establish(cfg(1), l1, &[(0, addr0)], |_| {
            let (link, route) = hook.take()?;
            Some(Box::new(move |frame| route_data(&link, &route, frame)) as InboundHook)
        })
        .unwrap();
        let port = WorkerPort::new(0, lp0, 2, slot_of, mesh.sender(), false, None);
        (port, [lp1, session], mesh, peer.join().unwrap().unwrap())
    }

    /// Park `port` for `LONG` at most, again after each wake without a
    /// packet, until one arrives; the packet and the time it took.
    fn park_until_a_packet(port: &WorkerPort) -> (Packet, Duration) {
        const LONG: Duration = Duration::from_secs(5);
        let t0 = Instant::now();
        loop {
            if let Some(p) = port.recv_timeout(LONG) {
                return (p, t0.elapsed());
            }
            assert!(t0.elapsed() < LONG, "nothing arrived");
        }
    }

    /// How long a test's sender waits before it sends, so that the port
    /// is parked by then (were it not, it would find the packet without
    /// parking, inside the bound all the same).
    const LATER: Duration = Duration::from_millis(100);
    /// How soon a parked port must be awake: well inside the 5 s park
    /// of [`park_until_a_packet`].
    const PROMPTLY: Duration = Duration::from_secs(1);

    #[test]
    fn a_parked_worker_port_wakes_on_a_peer_data_frame() {
        let (port, _lanes, mesh, peer) = parked_port();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(LATER);
            let ev = warp_core::Event::new(
                warp_core::EventId {
                    sender: warp_core::ObjectId(2),
                    serial: 0,
                },
                warp_core::ObjectId(0),
                VirtualTime::ZERO,
                VirtualTime::new(1),
                0,
                Vec::new(),
            );
            let msg = warp_net::PhysMsg {
                src: warp_core::LpId(2),
                dst: warp_core::LpId(0),
                events: warp_net::EventBatch::one(ev),
            };
            peer.send(
                1,
                Frame::Data {
                    seq: 0,
                    epoch: 7,
                    msg,
                },
            );
            peer
        });
        let (p, took) = park_until_a_packet(&port);
        assert!(matches!(p, Packet::Data { epoch: 7, .. }));
        assert!(took < PROMPTLY, "the frame waited out the park: {took:?}");
        drop(port);
        mesh.abort();
        writer.join().unwrap().abort();
    }

    #[test]
    fn a_parked_worker_port_wakes_on_a_lane_packet_and_a_checkpoint_request() {
        let (port, [lp1, session], mesh, peer) = parked_port();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(LATER);
            let news = Packet::GvtNews {
                gvt: VirtualTime::ZERO,
                ckpt: None,
            };
            lp1.send(0, news);
            std::thread::sleep(LATER);
            session.send(0, Packet::CkptReq(3));
            (lp1, session)
        });
        let (p, took) = park_until_a_packet(&port);
        assert!(matches!(p, Packet::GvtNews { .. }));
        assert!(
            took < PROMPTLY,
            "the lane packet waited out the park: {took:?}"
        );
        let (p, took) = park_until_a_packet(&port);
        assert!(matches!(p, Packet::CkptReq(3)));
        assert!(took < PROMPTLY, "the request waited out the park: {took:?}");
        drop(sender.join().unwrap());
        drop(port);
        mesh.abort();
        peer.abort();
    }

    #[test]
    fn a_silent_park_times_out() {
        let (port, _lanes, mesh, peer) = parked_port();
        let timeout = Duration::from_millis(50);
        let t0 = Instant::now();
        assert!(port.recv_timeout(timeout).is_none());
        assert!(t0.elapsed() >= timeout, "woke after {:?}", t0.elapsed());
        drop(port);
        mesh.abort();
        peer.abort();
    }
}
