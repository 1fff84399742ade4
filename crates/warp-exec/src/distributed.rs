//! The distributed executive: the kernel across OS *processes*.
//!
//! Topology: one **coordinator** (mesh process 0, no LPs — pure control
//! plane) plus `n_workers` **worker** processes, each owning a set of
//! the simulation's LPs (contiguous blocks at start; arbitrary after a
//! migration — the explicit [`warp_balance::Assignment`] map travels in
//! every [`WorkerInit`]/[`SessionLine`]). Every process joins a full
//! TCP mesh ([`warp_net::tcp`]); inside a worker, each of its LPs runs
//! the *same* `lp_thread` loop the threaded executive uses, plugged into
//! a `WorkerPort` that routes packets to co-resident LPs over local
//! channels and to remote LPs as [`Frame`]s over the mesh. The Mattern
//! GVT token circulates in global LP-id order exactly as in the threaded
//! executive — the token ring simply spans process boundaries now — and
//! GVT = ∞ shuts every LP down wherever it lives.
//!
//! Bootstrap protocol (coordinator side in [`run_coordinator`], worker
//! side in [`worker_main`]):
//!
//! 1. The coordinator binds a loopback listener and spawns each worker
//!    binary with piped stdio.
//! 2. Each worker binds its own ephemeral listener and prints a single
//!    `LISTEN <addr>` line on stdout.
//! 3. The coordinator sends each worker one line of JSON
//!    ([`WorkerInit`]) on stdin: mesh coordinates, every peer's address,
//!    and an *opaque* model description — `warp-exec` never learns how
//!    to build models; the worker binary supplies a closure that turns
//!    the model JSON into a [`SimulationSpec`].
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
//! notifications the controller worker emits at each GVT round:
//! everything committed below an announced GVT `g` is, by the GVT
//! invariant, processed everywhere and beyond rollback, so the
//! coordinator broadcasts `SnapshotReq{g}`, each worker extracts every
//! object's committed events in the window since the previous
//! checkpoint (the `snapshot` codec), and the coordinator appends the
//! per-worker deltas to an in-memory chain once **all** workers have
//! answered. Only then does it broadcast `SnapshotAck`, which lets the
//! workers' fossil collectors advance past the old horizon — history a
//! persisted checkpoint does not yet cover is pinned in memory (state
//! and input strictly below the pin, plus the output records whose
//! sends land at or beyond it: the raw material of an in-place resume).
//!
//! With [`RecoveryPolicy::store_dir`] set, every committed delta is
//! also spilled to a per-worker, CRC-checked **segment file** as it
//! arrives — a durable shadow of the chains (format in
//! `docs/recovery-store.md`, read back via
//! [`load_checkpoint_segment`]). [`RecoveryPolicy::compact_after`]
//! bounds chain depth: once any chain reaches it, every worker's chain
//! is merged into a single delta spanning the full committed range —
//! uniformly, so migration re-keying keeps seeing identical windows —
//! and the segments are atomically rewritten.
//!
//! When a peer is lost *uncleanly* (crash, half-open link past the
//! liveness timeout, or an unrecoverable sequence gap), every survivor
//! aborts its LP threads, re-binds a fresh listener, re-announces
//! `LISTEN` on stdout, and waits on stdin; the coordinator reaps dead
//! workers, respawns them, distributes the new peer list (a new-session
//! [`WorkerInit`] to respawned processes, a [`SessionLine`] to
//! survivors), re-establishes the mesh under the bumped epoch, and
//! **streams** every worker its delta chain as an ordered
//! [`Frame::ResumeChunk`] sequence — chunked at
//! [`RecoveryPolicy::resume_chunk_bytes`] and reassembled by the worker,
//! so a resume payload is never bounded by the transport's frame cap
//! ([`NetTuning::max_frame_bytes`]). How a worker re-seeds each LP then
//! depends on what it still holds: a **survivor** whose LP thread was
//! aborted hands its live runtime back to the session loop, and the next
//! resume rolls that runtime back *in place* to the checkpoint horizon
//! (undo speculation above it, harvest the retained output frontier) —
//! no object init, no replay of committed history. Everything else —
//! respawned processes, migrated-in LPs — is rebuilt by replaying the
//! committed logs through the normal kernel paths. Both paths re-ship
//! the regenerated frontier and must commit exactly the history the
//! sequential golden model commits; [`ResumeStats`] in the final report
//! counts each path and the events full rebuilds replayed. Recovery is
//! bounded by [`RecoveryPolicy::max_recoveries`]; past that (or with
//! recovery disabled) a lost worker is a clean [`DistError::Worker`],
//! never a hang.
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
//! # On-line load balancing (LP migration)
//!
//! With [`BalancePolicy::enabled`] (requires recovery), workers also
//! stream one [`Frame::LoadReport`] per LP at every GVT round. The
//! coordinator buckets a complete round of reports and feeds it to a
//! [`warp_balance::BalanceController`] — the cluster-level instance of
//! the paper's on-line configuration loop, where the sampled output `O`
//! is each LP's LVT lead over GVT and the input `I` is the LP↔worker
//! assignment. When the controller (after its dead-zone/patience
//! hysteresis) proposes a new assignment, migration reuses the recovery
//! machinery wholesale: the coordinator drives one extra checkpoint
//! barrier so the chains cover everything committed, re-keys the stored
//! delta chains under the new owner map, broadcasts [`Frame::Rebalance`]
//! (workers abort their LP threads exactly as on a peer loss and
//! re-announce `LISTEN`), then regroups into a new session whose
//! resume stream restores every LP on its *new* owner. Because
//! restoration replays committed history through the normal kernel paths,
//! the committed trace digest is unchanged by any migration. Migrations are
//! recorded as [`MigrationRecord`]s in the final report and as
//! `Param::Assignment` control events in the telemetry trajectory.
//!
//! # Elastic membership (growing and shrinking the worker set)
//!
//! With [`ElasticPolicy::enabled`] (requires recovery, like balancing),
//! the same per-LP [`Frame::LoadReport`] stream also feeds a
//! [`warp_elastic::ElasticController`] — the paper's configuration loop
//! pointed at the *worker count itself*. When cluster-wide pressure
//! (the spread of LVT leads) stays outside the controller's dead zone
//! for its patience window, the coordinator drives a **scale
//! transition** through the identical barrier-checkpoint machinery a
//! migration uses: one extra checkpoint so the chains cover everything
//! committed, then the session ends on purpose under the internal
//! `SessionEnd::Scale` reason (never charged to the recovery budget).
//!
//! *Scale-out* admits a fresh worker into the successor session: the
//! coordinator either spawns another copy of the worker binary
//! ([`ElasticPolicy::spawn`]) or adopts a process that dialed the
//! admission listener with a [`Frame::Join`] handshake (`join_main`,
//! the `--join` flag of a worker binary; the listener's address is
//! published via [`DistConfig::admit_file`]). The newcomer is seeded
//! exactly like a respawned worker — chains re-keyed to the grown
//! [`warp_balance::Assignment`], streamed as `ResumeChunk`s — and runs
//! one **probation** session: if the very next session is lost blaming
//! the newcomer, the coordinator *evicts* it and falls back to the
//! pre-scale membership (chains re-keyed back, recorded as a
//! `"fallback"` [`ScaleRecord`]) rather than burning recoveries on a
//! bad admission.
//!
//! *Scale-in* retires the highest-numbered worker: after the barrier
//! checkpoint, the coordinator sends the retiree [`Frame::Retire`] and
//! the survivors [`Frame::Rebalance`]; the retiree aborts its LP
//! threads, answers [`Frame::DrainAck`], closes cleanly, and **exits
//! 0** — its LPs restore on the survivors from the re-keyed chains.
//! Every transition lands in the report as a [`ScaleRecord`] and in the
//! telemetry trajectory as a `Param::ClusterSize` control event, and
//! because restoration replays committed history through the normal
//! kernel paths, the committed trace digest is unchanged by any scale.
//!
//! Orphan hygiene: a worker whose coordinator dies sees either its mesh
//! link drop or stdin close (the coordinator holds the write end) and
//! — without a rejoin grace — exits non-zero on its own, so workers
//! never outlive the coordinator by more than the liveness timeout plus
//! a bounded wait ([`NetTuning::orphan_grace_ms`]) for recovery
//! instructions. With [`RecoveryPolicy::rejoin_grace_ms`] set the
//! worker *parks* instead: it freezes its kernel state (retaining the
//! aborted session's runtimes for in-place rollback), dials the
//! coordinator's re-admission point with jittered exponential backoff,
//! and presents a [`Frame::Reattach`] carrying its identity and fossil
//! horizon. A restarted coordinator ([`resume_coordinator`], the
//! `--resume` flag of `warp-cluster`) replays the durable run journal
//! from `store_dir`, re-adopts parked survivors over those sockets, and
//! continues the run under a bumped session; only when the grace
//! expires with no successor does the parked worker give up (exit 4,
//! distinct from the no-grace orphan exit 3).

use crate::report::{
    LpSummary, MigrationMove, MigrationRecord, ResumeStats, RunReport, ScaleRecord,
};
use crate::snapshot::{
    compact_chain, decode_resume, encode_delta, encode_resume,
    journal::{journal_path, load_journal, RunJournal},
    merge_logs, rekey_chains,
    store::{load_segment_prefix, segment_path, SegmentStore},
    LpDelta, SnapshotError,
};
use crate::spec::SimulationSpec;
use crate::threaded::{lp_thread, CkptPart, LpOutcome, LpPort, LpSeed, Packet};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};
use warp_balance::{Assignment, BalanceController, BalancePolicy, LpLoad};
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::{LpId, VirtualTime};
use warp_elastic::{ElasticController, ElasticPolicy, ScaleDirection, ScalePlan};
use warp_net::tcp::{bind_loopback, MeshEvent, MeshSender, TcpMesh, TcpMeshConfig};
use warp_net::{FaultPlan, Frame};
use warp_telemetry::{ControlEvent, Param, TelemetryReport};

/// Transport tuning for distributed runs. All knobs that used to be
/// hard-coded constants; every worker receives the same values in its
/// [`WorkerInit`], so failure detection fires consistently across the
/// cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetTuning {
    /// Idle interval after which a link writer injects a heartbeat
    /// (milliseconds).
    pub heartbeat_ms: u64,
    /// Silence threshold after which a link is declared half-open, and
    /// the bound on how long a sequence gap may persist (milliseconds).
    pub liveness_ms: u64,
    /// First dial-retry backoff during mesh establishment (milliseconds).
    pub connect_backoff_start_ms: u64,
    /// Dial-retry backoff ceiling (milliseconds).
    pub connect_backoff_max_ms: u64,
    /// Frame-size cap (bytes) every process's decoder enforces; bounds
    /// worst-case memory per link and, together with
    /// [`RecoveryPolicy::resume_chunk_bytes`], the frames of a streamed
    /// resume. 0 = the protocol default
    /// ([`warp_net::frame::MAX_FRAME_BYTES`]).
    #[serde(default)]
    pub max_frame_bytes: u64,
    /// How long an orphaned worker waits for recovery instructions on
    /// its control channel before exiting (milliseconds). 0 = the legacy
    /// derivation `max(liveness_ms * 10, 30s)`. Also the wait between a
    /// parked worker's successful reattach and the coordinator's
    /// follow-up `SessionLine`.
    #[serde(default)]
    pub orphan_grace_ms: u64,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning {
            heartbeat_ms: 250,
            liveness_ms: 3000,
            connect_backoff_start_ms: 20,
            connect_backoff_max_ms: 500,
            max_frame_bytes: 0,
            orphan_grace_ms: 0,
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
        if self.connect_backoff_start_ms == 0 {
            return Err("connect_backoff_start_ms must be positive".into());
        }
        if self.connect_backoff_max_ms < self.connect_backoff_start_ms {
            return Err(format!(
                "connect_backoff_max_ms ({}) below connect_backoff_start_ms ({})",
                self.connect_backoff_max_ms, self.connect_backoff_start_ms
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

    fn heartbeat(&self) -> Duration {
        Duration::from_millis(self.heartbeat_ms)
    }
    fn liveness(&self) -> Duration {
        Duration::from_millis(self.liveness_ms)
    }
    /// How long an orphaned worker waits for recovery instructions
    /// before giving up.
    fn orphan_wait(&self) -> Duration {
        if self.orphan_grace_ms == 0 {
            Duration::from_millis(self.liveness_ms * 10).max(Duration::from_secs(30))
        } else {
            Duration::from_millis(self.orphan_grace_ms)
        }
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
    /// Directory for the durable checkpoint store: committed delta
    /// chains are spilled to per-worker segment files as each checkpoint
    /// completes (see `docs/recovery-store.md` for the format). `None`
    /// keeps the chains in coordinator memory only.
    #[serde(default)]
    pub store_dir: Option<String>,
    /// Compact each worker's delta chain into a single merged delta
    /// whenever its depth reaches this many checkpoints (0 = never).
    /// Compaction runs uniformly across all workers, preserving the
    /// identical-window invariant migration re-keying relies on.
    #[serde(default)]
    pub compact_after: u32,
    /// Payload bytes per [`Frame::ResumeChunk`] when streaming a resume
    /// (0 = 1 MiB). Always clamped below the transport's frame cap, so
    /// a resume is never bounded by [`NetTuning::max_frame_bytes`].
    #[serde(default)]
    pub resume_chunk_bytes: u64,
    /// How long (milliseconds) a worker that loses its *coordinator*
    /// survives in a parked state, retaining its LP runtimes and
    /// re-dialing the admission point with [`Frame::Reattach`], before
    /// giving up and exiting. 0 disables park-and-rejoin: coordinator
    /// loss orphans the worker after the plain orphan wait (the
    /// pre-failover behavior). Requires `store_dir` — a resumed
    /// coordinator reconciles parked workers against the durable run
    /// journal.
    #[serde(default)]
    pub rejoin_grace_ms: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 100,
            stall_budget_ms: 0,
            store_dir: None,
            compact_after: 0,
            resume_chunk_bytes: 0,
            rejoin_grace_ms: 0,
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
    /// On-line load-balancing policy. Enabling it requires
    /// `recovery.enabled` — migration rides the checkpoint machinery.
    pub balance: BalancePolicy,
    /// Artificial per-worker slowdowns for balance experiments: each
    /// `(proc_id, gap_us)` pair caps that worker process at one executed
    /// event per `gap_us` microseconds. Empty = full speed everywhere.
    pub handicaps: Vec<(u32, u64)>,
    /// Optional budget on each handicap: `(proc_id, n_events)` pairs
    /// bounding how many executed events the matching slowdown paces
    /// before the worker runs at full speed again — cumulative across
    /// sessions, so a recovery or scale never re-arms a spent handicap.
    /// Models a *transient* skew (the scale-in half of an elastic
    /// experiment needs the pressure to go away again).
    pub handicap_events: Vec<(u32, u64)>,
    /// Elastic-membership policy: grow/shrink the worker set between
    /// `min_workers` and `max_workers` off the same load stream the
    /// balancer reads. Enabling it requires `recovery.enabled`.
    pub elastic: ElasticPolicy,
    /// With elastic membership on, write the admission listener's
    /// address to this file once it is bound, so external `--join`
    /// workers (and tests) can find it.
    pub admit_file: Option<PathBuf>,
    /// Deterministic fault plan injected into every process's mesh
    /// (`None` = healthy links).
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
            balance: BalancePolicy::default(),
            handicaps: Vec::new(),
            handicap_events: Vec::new(),
            elastic: ElasticPolicy::default(),
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

/// The first line of JSON a worker reads on stdin.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerInit {
    /// This worker's mesh process id (1-based; 0 is the coordinator).
    pub proc_id: u32,
    /// Total mesh size (workers + coordinator).
    pub n_procs: u32,
    /// Total LP count (drives the LP→process assignment).
    pub n_lps: u32,
    /// Session epoch to establish under (0 = fresh run; > 0 means this
    /// process was spawned into a recovery and must await the resume
    /// stream).
    #[serde(default)]
    pub session: u32,
    /// Every process's listen address, as `(proc_id, addr)` pairs.
    pub peers: Vec<(u32, String)>,
    /// Opaque model description for the worker's spec builder.
    pub model: serde_json::Value,
    /// Transport tuning (identical on every process).
    #[serde(default)]
    pub net: NetTuning,
    /// Mesh establishment budget, milliseconds.
    pub connect_ms: u64,
    /// Whether the checkpoint/recovery protocol is armed.
    #[serde(default)]
    pub recovery: bool,
    /// Explicit LP→worker owner map (`assignment[lp]` = owning proc id).
    /// Empty means the contiguous default for `(n_lps, n_procs - 1)` —
    /// the pre-migration wire format.
    #[serde(default)]
    pub assignment: Vec<u32>,
    /// Whether the load balancer is armed (workers then stream one
    /// [`Frame::LoadReport`] per LP at each GVT round).
    #[serde(default)]
    pub balance: bool,
    /// Artificial slowdown: minimum microseconds between executed events
    /// across this whole worker process (0 = full speed). Test/benchmark
    /// knob for balance experiments.
    #[serde(default)]
    pub handicap_us: u64,
    /// Budget on the slowdown: pace only the first this-many executed
    /// events, then run at full speed (0 = unlimited). Counted once per
    /// process across all its sessions — a transient-skew knob for
    /// elastic experiments.
    #[serde(default)]
    pub handicap_events: u64,
    /// Deterministic fault plan for this process's mesh links.
    #[serde(default)]
    pub fault: Option<FaultPlan>,
    /// Park-and-rejoin instructions: present when the run keeps a
    /// durable journal and [`RecoveryPolicy::rejoin_grace_ms`] is set.
    /// `None` = coordinator loss orphans this worker (legacy behavior).
    #[serde(default)]
    pub rejoin: Option<RejoinSpec>,
}

/// Everything a worker needs to survive its coordinator: where to dial
/// [`Frame::Reattach`] after the control channel dies, and for how long
/// to keep trying. Shipped inside [`WorkerInit`] when the run journal
/// and [`RecoveryPolicy::rejoin_grace_ms`] are armed.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RejoinSpec {
    /// Parked-survival budget, milliseconds, measured from the moment
    /// the worker first loses its coordinator. Always positive.
    pub grace_ms: u64,
    /// The admission listener's address at init time. A resumed
    /// coordinator re-binds the same address, so parked workers dial
    /// here first.
    pub admit_addr: String,
    /// Optional admit-file path, re-read before every dial attempt: if
    /// the resumed coordinator could not re-bind `admit_addr` it
    /// publishes its fallback address here.
    #[serde(default)]
    pub admit_file: Option<String>,
}

/// A later line of JSON a *surviving* worker reads on stdin when the
/// coordinator starts a recovery: the new session epoch and the new
/// peer list (respawned workers live at fresh addresses).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionLine {
    /// The bumped session epoch.
    pub session: u32,
    /// Every process's listen address for the new session.
    pub peers: Vec<(u32, String)>,
    /// Mesh establishment budget, milliseconds.
    pub connect_ms: u64,
    /// The LP→worker owner map for the new session (empty = unchanged).
    /// Carries the migrated placement after a [`Frame::Rebalance`].
    #[serde(default)]
    pub assignment: Vec<u32>,
    /// Total mesh size for the new session (0 = unchanged). Carries the
    /// grown or shrunk cluster shape after an elastic scale.
    #[serde(default)]
    pub n_procs: u32,
}

/// A worker's end-of-run payload (travels as `Frame::Report` bytes).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkerReport {
    gvt_rounds: u64,
    per_lp: Vec<LpSummary>,
    /// Resume accounting accumulated across this worker's sessions
    /// (rebuild vs. in-place rollback counts, replayed events).
    #[serde(default)]
    resume: ResumeStats,
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// How the coordinator talks to one worker's control plane: the stdio
/// pipes of a child it spawned, or the admission socket of a process
/// that dialed in with [`Frame::Join`]. The line protocol on top is
/// identical either way.
enum Ctl {
    /// A spawned child; lines ride its piped stdio.
    Child(Child),
    /// A joined remote; lines ride the (cloned) admission stream.
    Remote(TcpStream),
}

/// A worker process plus its control-line stream. The reader thread
/// lives for the worker's whole life because recovery needs a *second*
/// `LISTEN` line from survivors, long after bootstrap.
struct WorkerProc {
    ctl: Ctl,
    lines: Receiver<Result<String, String>>,
    /// Next control line must be a full [`WorkerInit`] (fresh spawn or
    /// admission) vs. a [`SessionLine`] (survivor of a previous session).
    fresh: bool,
    /// A `LISTEN` address consumed early (while sorting survivors from
    /// corpses) and not yet used for a session.
    pending_listen: Option<String>,
    /// Set when this process dialed in with [`Frame::Reattach`] rather
    /// than [`Frame::Join`]: `(session, worker_id, retained_horizon)` of
    /// the parked worker awaiting re-adoption by a resumed coordinator.
    reattach: Option<(u32, u32, VirtualTime)>,
}

/// Feed lines from any byte stream into a channel; the channel closing
/// means EOF (the worker is gone).
fn spawn_line_reader<R: Read + Send + 'static>(src: R) -> Receiver<Result<String, String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(src);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    if tx.send(Ok(line.trim().to_string())).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(format!("control read failed: {e}")));
                    break;
                }
            }
        }
    });
    rx
}

impl WorkerProc {
    fn spawn(bin: &PathBuf) -> io::Result<WorkerProc> {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("worker stdout piped");
        Ok(WorkerProc {
            lines: spawn_line_reader(stdout),
            ctl: Ctl::Child(child),
            fresh: true,
            pending_listen: None,
            reattach: None,
        })
    }

    /// Adopt a worker that dialed the admission listener (its
    /// [`Frame::Join`] handshake already consumed by the acceptor).
    fn from_stream(stream: TcpStream) -> io::Result<WorkerProc> {
        let read_half = stream.try_clone()?;
        Ok(WorkerProc {
            lines: spawn_line_reader(read_half),
            ctl: Ctl::Remote(stream),
            fresh: true,
            pending_listen: None,
            reattach: None,
        })
    }

    fn is_remote(&self) -> bool {
        matches!(self.ctl, Ctl::Remote(_))
    }

    /// OS pid for diagnostics (0 for a joined remote).
    fn pid(&self) -> u32 {
        match &self.ctl {
            Ctl::Child(c) => c.id(),
            Ctl::Remote(_) => 0,
        }
    }

    /// Wait for a clean exit after the final report: a child must exit
    /// 0; a joined remote counts as clean once it closes its control
    /// socket (there is no exit status to observe across the wire).
    fn wait_success(&mut self, proc_id: u32, deadline: Instant) -> Result<(), DistError> {
        match &mut self.ctl {
            Ctl::Child(c) => match c.wait() {
                Ok(status) if status.success() => Ok(()),
                Ok(status) => Err(DistError::Worker {
                    proc_id,
                    detail: format!("exited with {status} after reporting"),
                }),
                Err(e) => Err(DistError::Io(e)),
            },
            Ctl::Remote(_) => loop {
                match self
                    .lines
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                {
                    Ok(_) => {} // stray output; keep draining
                    Err(RecvTimeoutError::Disconnected) => return Ok(()),
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(DistError::Timeout(format!(
                            "joined worker (proc {proc_id}) never closed its control socket"
                        )))
                    }
                }
            },
        }
    }

    fn kill(&mut self) {
        match &mut self.ctl {
            Ctl::Child(c) => {
                let _ = c.kill();
                let _ = c.wait();
            }
            Ctl::Remote(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Wait for the worker's `LISTEN <addr>` announcement.
    fn expect_listen(&mut self, proc_id: u32, deadline: Instant) -> Result<String, DistError> {
        if let Some(addr) = self.pending_listen.take() {
            return Ok(addr);
        }
        match self
            .lines
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            Ok(Ok(line)) => line
                .strip_prefix("LISTEN ")
                .map(|a| a.trim().to_string())
                .ok_or_else(|| DistError::Worker {
                    proc_id,
                    detail: format!("expected a LISTEN line on stdout, got {line:?}"),
                }),
            Ok(Err(detail)) => Err(DistError::Worker { proc_id, detail }),
            Err(RecvTimeoutError::Disconnected) => Err(DistError::Worker {
                proc_id,
                detail: "exited before announcing its listen address".into(),
            }),
            Err(RecvTimeoutError::Timeout) => Err(DistError::Timeout(format!(
                "worker (proc {proc_id}) never announced its listen address"
            ))),
        }
    }

    fn send_line(&mut self, proc_id: u32, line: &str) -> Result<(), DistError> {
        let sink: &mut dyn Write = match &mut self.ctl {
            Ctl::Child(c) => c.stdin.as_mut().expect("worker stdin piped"),
            Ctl::Remote(s) => s,
        };
        sink.write_all(line.as_bytes())
            .and_then(|_| sink.write_all(b"\n"))
            .and_then(|_| sink.flush())
            .map_err(|e| DistError::Worker {
                proc_id,
                detail: format!("died before reading its control line: {e}"),
            })
    }
}

/// The elastic admission point: workers started with `--join` dial this
/// listener, present a [`Frame::Join`] handshake, and wait in `queue`
/// until a scale-out adopts them. The acceptor thread holds only a
/// [`Weak`] reference, so it dies with the coordinator that created it.
struct Admission {
    queue: Mutex<Vec<WorkerProc>>,
    addr: String,
}

impl Admission {
    /// Bind the listener, start the acceptor thread, and publish the
    /// address to `admit_file` when asked.
    fn start(admit_file: Option<&Path>) -> Result<Arc<Admission>, DistError> {
        let listener = bind_loopback()?;
        Admission::run(listener, admit_file)
    }

    /// Resume variant: re-bind the *journaled* admission address, so
    /// parked workers holding the old [`RejoinSpec`] find the restarted
    /// coordinator without any rendezvous file. The old socket may
    /// linger in TIME_WAIT briefly, so the bind is retried within
    /// `budget`. Falls back to an ephemeral port when the address never
    /// frees up — callers publish the fallback via the admit file, the
    /// parked workers' second line of discovery.
    fn resume(
        addr: &str,
        budget: Duration,
        admit_file: Option<&Path>,
    ) -> Result<Arc<Admission>, DistError> {
        let until = Instant::now() + budget;
        let listener = loop {
            match std::net::TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(_) if Instant::now() < until => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => {
                    eprintln!(
                        "coordinator: could not re-bind admission point {addr} ({e}); \
                         falling back to an ephemeral port"
                    );
                    break bind_loopback()?;
                }
            }
        };
        Admission::run(listener, admit_file)
    }

    fn run(
        listener: std::net::TcpListener,
        admit_file: Option<&Path>,
    ) -> Result<Arc<Admission>, DistError> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        if let Some(path) = admit_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        let admission = Arc::new(Admission {
            queue: Mutex::new(Vec::new()),
            addr,
        });
        let weak: Weak<Admission> = Arc::downgrade(&admission);
        std::thread::spawn(move || loop {
            let Some(adm) = weak.upgrade() else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Some(w) = admit(stream) {
                        adm.queue.lock().unwrap().push(w);
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    drop(adm);
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => return,
            }
        });
        Ok(admission)
    }

    fn joiners_waiting(&self) -> bool {
        self.queue
            .lock()
            .unwrap()
            .iter()
            .any(|w| w.reattach.is_none())
    }

    /// Pop the oldest `Join` dialer. Skips parked `Reattach` dialers —
    /// those belong to [`Admission::take_reattach`], never to a
    /// scale-out.
    fn take_joiner(&self) -> Option<WorkerProc> {
        let mut q = self.queue.lock().unwrap();
        let i = q.iter().position(|w| w.reattach.is_none())?;
        Some(q.remove(i))
    }

    /// Pop the parked worker that identified itself as `worker_id` in
    /// its `Reattach` handshake, if it has dialed in yet.
    fn take_reattach(&self, worker_id: u32) -> Option<WorkerProc> {
        let mut q = self.queue.lock().unwrap();
        let i = q
            .iter()
            .position(|w| w.reattach.is_some_and(|(_, id, _)| id == worker_id))?;
        Some(q.remove(i))
    }
}

/// Consume exactly one length-prefixed handshake frame from a dialing
/// worker — reading *only* the frame's own bytes, so the line protocol
/// that follows on the same stream is untouched — and adopt it. Two
/// handshakes are honored: [`Frame::Join`] (an elastic newcomer, when
/// the protocol versions match) and [`Frame::Reattach`] (a parked
/// worker re-homing after a coordinator restart — version agreement is
/// implied by the frame decoding at all, since the tag is new in v7).
/// Anything else is dropped silently; the admission listener must shrug
/// off port scanners and stale dialers.
fn admit(mut stream: TcpStream) -> Option<WorkerProc> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > 64 {
        return None; // a Join or Reattach frame is a handful of bytes
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).ok()?;
    let mut dec = warp_net::frame::FrameDecoder::new();
    dec.push(&len_buf);
    dec.push(&body);
    match dec.next() {
        Ok(Some(Frame::Join { version })) if version == warp_net::frame::PROTO_VERSION => {
            let _ = stream.set_read_timeout(None);
            WorkerProc::from_stream(stream).ok()
        }
        Ok(Some(Frame::Reattach {
            session,
            worker_id,
            horizon,
        })) => {
            let _ = stream.set_read_timeout(None);
            let mut w = WorkerProc::from_stream(stream).ok()?;
            w.reattach = Some((session, worker_id, horizon));
            Some(w)
        }
        _ => None,
    }
}

/// How one mesh session ended, from the coordinator's point of view.
enum SessionEnd {
    /// Every worker reported and said goodbye.
    Finished(Vec<WorkerReport>),
    /// A worker was lost uncleanly; the session is unrecoverable but the
    /// run may not be.
    Lost { peer: u32, detail: String },
    /// The load balancer ended the session on purpose: the cluster
    /// regroups under `next` with the chains re-keyed to the new owners.
    Rebalance {
        next: Assignment,
        moves: Vec<warp_balance::Move>,
        imbalance: f64,
    },
    /// The elastic controller ended the session on purpose: the cluster
    /// regroups with one worker more (`ScaleDirection::Out`) or fewer
    /// (`ScaleDirection::In`) under the plan's grown/shrunk assignment.
    /// On scale-in the retiree has already answered [`Frame::DrainAck`].
    Scale { plan: ScalePlan },
}

/// Checkpoint chains and horizon: everything the coordinator must keep
/// across sessions to restore the cluster.
struct CkptStore {
    /// Per-worker ordered delta payloads (index = proc_id - 1).
    chains: Vec<Vec<Vec<u8>>>,
    /// The horizon of the last *complete* checkpoint.
    horizon: VirtualTime,
    /// Monotone checkpoint id across the whole run.
    next_ckpt: u32,
    /// Durable spill of the chains: one segment file per worker,
    /// appended as checkpoints commit (`None` = in-memory only).
    segments: Option<SegmentStore>,
    /// Coordinator-side resume/store accounting for the run report.
    stats: ResumeStats,
}

impl CkptStore {
    /// Collapse every worker's chain into one delta spanning the full
    /// committed range, mirroring the rewrite to the segment files.
    /// Applied uniformly across workers: `rekey_chains` relies on every
    /// chain carrying identical windows at identical depths.
    fn compact(&mut self) -> Result<(), SnapshotError> {
        for w in 0..self.chains.len() {
            if self.chains[w].len() < 2 {
                continue;
            }
            let merged = compact_chain(&self.chains[w])?;
            self.chains[w] = vec![merged];
            if let Some(seg) = self.segments.as_mut() {
                seg.rewrite(w as u32 + 1, &self.chains[w])?;
            }
        }
        self.stats.compactions += 1;
        Ok(())
    }

    /// Mirror the in-memory chains to the segment files wholesale —
    /// after migration re-keying has moved LPs between chains.
    fn rewrite_segments(&mut self) -> Result<(), SnapshotError> {
        if let Some(seg) = self.segments.as_mut() {
            for (w, chain) in self.chains.iter().enumerate() {
                seg.rewrite(w as u32 + 1, chain)?;
            }
        }
        Ok(())
    }

    /// After an elastic scale: grow or shrink the durable store's
    /// segment roster to the new worker count (fresh files appear,
    /// retired files are deleted), then mirror the re-keyed chains.
    fn resize_segments(&mut self, n_workers: u32) -> Result<(), SnapshotError> {
        if let Some(seg) = self.segments.as_mut() {
            seg.resize(n_workers)?;
        }
        self.rewrite_segments()
    }
}

/// A checkpoint in flight: parts received so far, by worker.
struct PendingCkpt {
    ckpt: u32,
    gvt: VirtualTime,
    parts: Vec<Option<Vec<u8>>>,
}

/// The coordinator's cross-session mutable state — everything the run
/// journal persists, plus the open journal itself. A fresh
/// [`run_coordinator`] builds it from the config; a restarted
/// [`resume_coordinator`] rebuilds it from the journal; both then drive
/// the same session loop ([`run_cluster`]).
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
    /// journaled — a coordinator outage ends the probation session
    /// anyway, and the fallback assignment is reconstructible from the
    /// journaled one.
    probation: Option<(u32, Assignment, f64)>,
    /// The open run journal (`None` without a durable store).
    journal: Option<RunJournal>,
    /// Checkpoint barriers completed across the whole run, every
    /// coordinator incarnation included — the unit the
    /// `WARP_COORD_TEST_CRASH=barriers:N` hook counts.
    barriers: u64,
}

/// One durable control-plane record: the JSON payload of a run-journal
/// state record. Appended at every checkpoint barrier and at every
/// membership/assignment change, so journal and segment files never
/// drift. The journal append *is* the barrier's commit point: the
/// `SnapshotAck` that lets workers advance their fossil floors is
/// broadcast only after the append, so a parked worker's retained
/// horizon can never exceed `horizon` here.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CoordJournal {
    /// Epoch of the session this record closed (the resumed coordinator
    /// continues at `session + 1`).
    session: u32,
    next_ckpt: u32,
    /// Committed checkpoint horizon, in ticks.
    horizon: u64,
    /// The LP→worker owner map at append time.
    owners: Vec<u32>,
    n_workers: u32,
    /// Per-worker committed delta-chain depth. On resume, each on-disk
    /// segment is truncated to this — a delta appended after the last
    /// journal record belongs to a barrier that never committed.
    chain_len: Vec<u32>,
    /// The admission listener's address (empty when admission is off) —
    /// a resumed coordinator re-binds it so parked workers find home.
    admit_addr: String,
    recoveries: u64,
    barriers: u64,
    migrations: Vec<MigrationRecord>,
    scales: Vec<ScaleRecord>,
    /// Coordinator-side store accounting, including the spilled-byte
    /// total of prior incarnations.
    stats: ResumeStats,
    spilled_bytes: u64,
    telemetry: Option<TelemetryReport>,
}

impl CoordState {
    /// Append one state record capturing the current control-plane
    /// state. A no-op without a journal. Called before every session and
    /// at every checkpoint barrier — always *before* the `SnapshotAck`
    /// broadcast, so the journal is never behind any worker's fossil
    /// floor.
    fn journal_append(&mut self, admit_addr: &str) -> Result<(), DistError> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let spilled = self
            .store
            .segments
            .as_ref()
            .map(|s| s.spilled_bytes)
            .unwrap_or(0);
        let rec = CoordJournal {
            session: self.session,
            next_ckpt: self.store.next_ckpt,
            horizon: self.store.horizon.ticks(),
            owners: self.assign.owners().to_vec(),
            n_workers: self.assign.n_workers(),
            chain_len: self.store.chains.iter().map(|c| c.len() as u32).collect(),
            admit_addr: admit_addr.to_string(),
            recoveries: self.recoveries,
            barriers: self.barriers,
            migrations: self.migrations.clone(),
            scales: self.scales.clone(),
            stats: self.store.stats.clone(),
            spilled_bytes: spilled,
            telemetry: self.telemetry.clone(),
        };
        let payload = serde_json::to_vec(&rec)
            .map_err(|e| DistError::Protocol(format!("encoding journal record: {e}")))?;
        journal
            .append_state(&payload)
            .map_err(|e| DistError::Io(io::Error::other(format!("run journal append: {e}"))))
    }
}

/// How the coordinator's test-crash hook fires (env var
/// `WARP_COORD_TEST_CRASH`, merged with
/// [`FaultPlan::coordinator_crash_after`]). The counted unit is the
/// completed checkpoint barrier, cumulative across coordinator
/// incarnations — so a resumed coordinator inheriting the env var does
/// not re-crash: the journal restores the count at or past the trigger,
/// and only exact equality fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CrashHook {
    None,
    /// Legacy form (any value other than `barriers:N`): abort at the
    /// first `Progress` frame of the run.
    FirstProgress,
    /// `barriers:N`: abort immediately after the Nth barrier commits
    /// (journal appended, acks broadcast) — between barriers, the
    /// survivable window.
    AfterBarriers(u64),
}

impl CrashHook {
    fn from_env(fault: Option<&FaultPlan>) -> CrashHook {
        CrashHook::resolve(
            fault,
            std::env::var("WARP_COORD_TEST_CRASH").ok().as_deref(),
        )
    }

    /// The merge of the fault plan's trigger and the env hook: barrier
    /// counts take the earlier of the two, and the legacy
    /// first-`Progress` form always wins (it fires soonest).
    fn resolve(fault: Option<&FaultPlan>, env: Option<&str>) -> CrashHook {
        let from_plan = fault
            .and_then(FaultPlan::coordinator_crash_after)
            .map(CrashHook::AfterBarriers);
        let from_env =
            env.map(
                |v| match v.strip_prefix("barriers:").and_then(|n| n.parse().ok()) {
                    Some(n) => CrashHook::AfterBarriers(n),
                    None => CrashHook::FirstProgress,
                },
            );
        match (from_plan, from_env) {
            (Some(CrashHook::AfterBarriers(a)), Some(CrashHook::AfterBarriers(b))) => {
                CrashHook::AfterBarriers(a.min(b))
            }
            (Some(h), None) | (None, Some(h)) => h,
            (Some(_), Some(CrashHook::FirstProgress)) => CrashHook::FirstProgress,
            (None, None) => CrashHook::None,
            (Some(h), Some(_)) => h,
        }
    }
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
    let deadline = start + cfg.timeout;
    let assign =
        Assignment::contiguous(cfg.n_lps, cfg.n_workers).map_err(DistError::InvalidConfig)?;
    cfg.net.validate().map_err(DistError::InvalidConfig)?;
    cfg.balance.validate().map_err(DistError::InvalidConfig)?;
    cfg.elastic.validate().map_err(DistError::InvalidConfig)?;
    if cfg.balance.enabled && !cfg.recovery.enabled {
        return Err(DistError::InvalidConfig(
            "load balancing requires recovery: migration rides the checkpoint/resume machinery"
                .into(),
        ));
    }
    if cfg.elastic.enabled && !cfg.recovery.enabled {
        return Err(DistError::InvalidConfig(
            "elastic membership requires recovery: scaling rides the checkpoint/resume machinery"
                .into(),
        ));
    }
    if cfg.elastic.enabled
        && (cfg.n_workers < cfg.elastic.min_workers || cfg.n_workers > cfg.elastic.max_workers)
    {
        return Err(DistError::InvalidConfig(format!(
            "initial worker count {} outside the elastic bounds {}..={}",
            cfg.n_workers, cfg.elastic.min_workers, cfg.elastic.max_workers
        )));
    }
    // A handicap may name any proc the cluster can ever grow to hold.
    let max_procs = if cfg.elastic.enabled {
        cfg.elastic.max_workers.max(cfg.n_workers)
    } else {
        cfg.n_workers
    };
    for &(proc_id, _) in cfg.handicaps.iter().chain(&cfg.handicap_events) {
        if proc_id == 0 || proc_id > max_procs {
            return Err(DistError::InvalidConfig(format!(
                "handicap names proc {proc_id}, outside 1..={max_procs}"
            )));
        }
    }
    if cfg.recovery.store_dir.is_some() && !cfg.recovery.enabled {
        return Err(DistError::InvalidConfig(
            "recovery.store_dir set but recovery is disabled: the store would never see a checkpoint"
                .into(),
        ));
    }
    if cfg.recovery.rejoin_grace_ms > 0 && cfg.recovery.store_dir.is_none() {
        return Err(DistError::InvalidConfig(
            "recovery.rejoin_grace_ms set without store_dir: a resumed coordinator \
             needs the run journal to reconcile parked workers"
                .into(),
        ));
    }
    // Open the durable store (and its run journal) before any worker
    // exists, so a bad directory fails the run without orphaning
    // processes.
    let (segments, journal) = match &cfg.recovery.store_dir {
        Some(dir) => {
            let seg = SegmentStore::create(Path::new(dir), cfg.n_workers)
                .map_err(|e| DistError::InvalidConfig(format!("checkpoint store at {dir}: {e}")))?;
            let jrn = RunJournal::create(Path::new(dir), &model_json(cfg)?)
                .map_err(|e| DistError::InvalidConfig(format!("run journal at {dir}: {e}")))?;
            (Some(seg), Some(jrn))
        }
        None => (None, None),
    };
    let announce = std::env::var_os("WARP_ANNOUNCE_WORKERS").is_some();
    // The admission point outlives every session: a `--join` worker may
    // dial in long before pressure warrants adopting it, and a parked
    // worker dials it with `Reattach` after a coordinator restart.
    let admission = if cfg.elastic.enabled || cfg.recovery.rejoin_grace_ms > 0 {
        let a = Admission::start(cfg.admit_file.as_deref())?;
        eprintln!("coordinator: admission point at {}", a.addr);
        Some(a)
    } else {
        None
    };

    let mut workers: Vec<WorkerProc> = Vec::new();
    for i in 0..cfg.n_workers {
        match WorkerProc::spawn(&cfg.worker_bin) {
            Ok(w) => {
                if announce {
                    eprintln!("WORKER_PID {} {}", i + 1, w.pid());
                }
                workers.push(w);
            }
            Err(e) => {
                kill_all(&mut workers);
                return Err(DistError::Io(e));
            }
        }
    }

    let mut st = CoordState {
        assign,
        store: CkptStore {
            chains: (0..cfg.n_workers).map(|_| Vec::new()).collect(),
            horizon: VirtualTime::ZERO,
            next_ckpt: 0,
            segments,
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
        journal,
        barriers: 0,
    };
    run_cluster(cfg, workers, admission, deadline, start, announce, &mut st)
}

/// The coordinator's session loop, shared by a fresh [`run_coordinator`]
/// and a journal-driven [`resume_coordinator`]: run sessions until every
/// worker reports, absorbing planned reconfigurations (rebalance, scale)
/// and unplanned losses (recovery) along the way. Appends a journal
/// record before each session so the durable control plane always
/// matches the segment files the session is about to extend.
fn run_cluster(
    cfg: &DistConfig,
    mut workers: Vec<WorkerProc>,
    admission: Option<Arc<Admission>>,
    deadline: Instant,
    start: Instant,
    announce: bool,
    st: &mut CoordState,
) -> Result<RunReport, DistError> {
    let admit_addr = admission
        .as_ref()
        .map(|a| a.addr.clone())
        .unwrap_or_default();
    loop {
        if let Err(e) = st.journal_append(&admit_addr) {
            kill_all(&mut workers);
            return Err(e);
        }
        let attempt =
            run_session_as_coordinator(cfg, &mut workers, deadline, admission.as_deref(), st);
        match attempt {
            Ok(SessionEnd::Finished(reports)) => {
                for (i, w) in workers.iter_mut().enumerate() {
                    if let Err(e) = w.wait_success(i as u32 + 1, deadline) {
                        kill_all(&mut workers);
                        return Err(e);
                    }
                }
                if let Some(seg) = &st.store.segments {
                    // `+=`, not `=`: a resumed coordinator seeds the
                    // counter with the previous incarnations' journaled
                    // total, and this incarnation's store counts from 0.
                    st.store.stats.store_spilled_bytes += seg.spilled_bytes;
                }
                return Ok(merge_reports(
                    reports,
                    start.elapsed().as_secs_f64(),
                    st.recoveries,
                    std::mem::take(&mut st.migrations),
                    std::mem::take(&mut st.scales),
                    st.telemetry.take().filter(|t| !t.is_empty()),
                    st.store.stats.clone(),
                ));
            }
            Ok(SessionEnd::Rebalance {
                next,
                moves,
                imbalance,
            }) => {
                // A planned reconfiguration: not charged to the recovery
                // budget. Re-key the stored chains so each worker's next
                // resume stream carries exactly the LPs it now owns.
                st.session += 1;
                st.probation = None;
                match rekey_chains(&st.store.chains, next.n_workers(), |lp| next.proc_of(lp)) {
                    Ok(chains) => st.store.chains = chains,
                    Err(e) => {
                        kill_all(&mut workers);
                        return Err(DistError::Protocol(format!(
                            "re-keying checkpoint chains for migration: {e}"
                        )));
                    }
                }
                // The durable store must mirror the re-keyed ownership,
                // or its segments would replay LPs to the wrong workers.
                if let Err(e) = st.store.rewrite_segments() {
                    kill_all(&mut workers);
                    return Err(DistError::Io(io::Error::other(format!(
                        "checkpoint store rewrite after migration: {e}"
                    ))));
                }
                let gvt = (st.store.horizon > VirtualTime::ZERO).then(|| st.store.horizon.ticks());
                let batch = TelemetryReport {
                    events: moves
                        .iter()
                        .map(|m| ControlEvent {
                            gvt,
                            lp: m.lp,
                            object: m.lp,
                            lvt: None,
                            param: Param::Assignment,
                            old: m.from as f64,
                            new: m.to as f64,
                            sampled_o: imbalance,
                        })
                        .collect(),
                    ..TelemetryReport::default()
                };
                match &mut st.telemetry {
                    Some(t) => t.merge(batch),
                    None => st.telemetry = Some(batch),
                }
                st.migrations.push(MigrationRecord {
                    gvt,
                    imbalance,
                    moves: moves
                        .iter()
                        .map(|m| MigrationMove {
                            lp: m.lp,
                            from: m.from,
                            to: m.to,
                        })
                        .collect(),
                });
                st.assign = next;
                if let Err(e) = regroup(cfg, &mut workers, deadline, announce) {
                    kill_all(&mut workers);
                    return Err(e);
                }
            }
            Ok(SessionEnd::Scale { plan }) => {
                // A planned capacity change: like a rebalance, never
                // charged to the recovery budget.
                st.session += 1;
                st.probation = None;
                let next = plan.assignment.clone();
                match plan.direction {
                    ScaleDirection::Out => {
                        // Prefer a worker that already dialed in; spawn
                        // a fresh copy of the binary otherwise. The
                        // newcomer runs its first session on probation.
                        let newcomer = match admission.as_ref().and_then(|a| a.take_joiner()) {
                            Some(w) => w,
                            None => match WorkerProc::spawn(&cfg.worker_bin) {
                                Ok(w) => w,
                                Err(e) => {
                                    kill_all(&mut workers);
                                    return Err(DistError::Io(e));
                                }
                            },
                        };
                        if announce {
                            eprintln!("WORKER_PID {} {}", plan.to_workers, newcomer.pid());
                        }
                        workers.push(newcomer);
                        st.probation = Some((plan.to_workers, st.assign.clone(), plan.pressure));
                    }
                    ScaleDirection::In => {
                        // The retiree already answered `DrainAck`; all
                        // that is left is its clean exit.
                        let mut retiree =
                            workers.pop().expect("scale-in retires an existing worker");
                        if let Err(e) = retiree.wait_success(plan.from_workers, deadline) {
                            kill_all(&mut workers);
                            return Err(e);
                        }
                    }
                }
                match rekey_chains(&st.store.chains, next.n_workers(), |lp| next.proc_of(lp)) {
                    Ok(chains) => st.store.chains = chains,
                    Err(e) => {
                        kill_all(&mut workers);
                        return Err(DistError::Protocol(format!(
                            "re-keying checkpoint chains for scale: {e}"
                        )));
                    }
                }
                if let Err(e) = st.store.resize_segments(next.n_workers()) {
                    kill_all(&mut workers);
                    return Err(DistError::Io(io::Error::other(format!(
                        "checkpoint store resize after scale: {e}"
                    ))));
                }
                let gvt = (st.store.horizon > VirtualTime::ZERO).then(|| st.store.horizon.ticks());
                let batch = TelemetryReport {
                    events: vec![ControlEvent {
                        gvt,
                        lp: 0,
                        object: 0,
                        lvt: None,
                        param: Param::ClusterSize,
                        old: plan.from_workers as f64,
                        new: plan.to_workers as f64,
                        sampled_o: plan.pressure,
                    }],
                    ..TelemetryReport::default()
                };
                match &mut st.telemetry {
                    Some(t) => t.merge(batch),
                    None => st.telemetry = Some(batch),
                }
                st.scales.push(ScaleRecord {
                    gvt,
                    direction: match plan.direction {
                        ScaleDirection::Out => "out".into(),
                        ScaleDirection::In => "in".into(),
                    },
                    from_workers: plan.from_workers,
                    to_workers: plan.to_workers,
                    pressure: plan.pressure,
                    moves: plan
                        .moves
                        .iter()
                        .map(|m| MigrationMove {
                            lp: m.lp,
                            from: m.from,
                            to: m.to,
                        })
                        .collect(),
                });
                st.assign = next;
                if let Err(e) = regroup(cfg, &mut workers, deadline, announce) {
                    kill_all(&mut workers);
                    return Err(e);
                }
            }
            Ok(SessionEnd::Lost { peer, detail }) => {
                // A newcomer that dies on probation is *evicted*, not
                // recovered: fall back to the pre-scale membership (the
                // chains re-key back losslessly) so one bad admission
                // cannot wedge the cluster.
                if st.probation.as_ref().is_some_and(|(p, _, _)| *p == peer) {
                    let (newbie, pre_assign, _) = st.probation.take().unwrap();
                    eprintln!(
                        "warp-coordinator: evicting probation worker {newbie} ({detail}); \
                         falling back to {} workers",
                        pre_assign.n_workers()
                    );
                    let mut evicted = workers.pop().expect("probation newcomer still listed");
                    evicted.kill();
                    match rekey_chains(&st.store.chains, pre_assign.n_workers(), |lp| {
                        pre_assign.proc_of(lp)
                    }) {
                        Ok(chains) => st.store.chains = chains,
                        Err(e) => {
                            kill_all(&mut workers);
                            return Err(DistError::Protocol(format!(
                                "re-keying checkpoint chains for eviction: {e}"
                            )));
                        }
                    }
                    if let Err(e) = st.store.resize_segments(pre_assign.n_workers()) {
                        kill_all(&mut workers);
                        return Err(DistError::Io(io::Error::other(format!(
                            "checkpoint store resize after eviction: {e}"
                        ))));
                    }
                    let gvt =
                        (st.store.horizon > VirtualTime::ZERO).then(|| st.store.horizon.ticks());
                    let batch = TelemetryReport {
                        events: vec![ControlEvent {
                            gvt,
                            lp: 0,
                            object: 0,
                            lvt: None,
                            param: Param::ClusterSize,
                            old: newbie as f64,
                            new: pre_assign.n_workers() as f64,
                            sampled_o: -1.0,
                        }],
                        ..TelemetryReport::default()
                    };
                    match &mut st.telemetry {
                        Some(t) => t.merge(batch),
                        None => st.telemetry = Some(batch),
                    }
                    st.scales.push(ScaleRecord {
                        gvt,
                        direction: "fallback".into(),
                        from_workers: newbie,
                        to_workers: pre_assign.n_workers(),
                        pressure: -1.0,
                        moves: Vec::new(),
                    });
                    st.assign = pre_assign;
                    st.recoveries += 1;
                    st.session += 1;
                    if let Err(e) = regroup(cfg, &mut workers, deadline, announce) {
                        kill_all(&mut workers);
                        return Err(e);
                    }
                    continue;
                }
                if !cfg.recovery.enabled || st.recoveries >= cfg.recovery.max_recoveries as u64 {
                    kill_all(&mut workers);
                    return Err(DistError::Worker {
                        proc_id: peer,
                        detail: if cfg.recovery.enabled {
                            format!("{detail} (recovery budget of {} exhausted)", st.recoveries)
                        } else {
                            detail
                        },
                    });
                }
                st.recoveries += 1;
                st.session += 1;
                if let Err(e) = regroup(cfg, &mut workers, deadline, announce) {
                    kill_all(&mut workers);
                    return Err(e);
                }
            }
            Err(e) => {
                // A failure *outside* the mesh (bootstrap I/O, a worker
                // dying mid-handshake): recoverable by a full restart of
                // every worker, state restored from the chains. A joined
                // remote cannot be respawned from here, so its loss is
                // final.
                let retryable = matches!(e, DistError::Io(_) | DistError::Worker { .. })
                    && !workers.iter().any(WorkerProc::is_remote);
                if !cfg.recovery.enabled
                    || !retryable
                    || st.recoveries >= cfg.recovery.max_recoveries as u64
                    || Instant::now() >= deadline
                {
                    kill_all(&mut workers);
                    return Err(e);
                }
                st.recoveries += 1;
                st.session += 1;
                let n_restart = workers.len();
                kill_all(&mut workers);
                workers.clear();
                for i in 0..n_restart {
                    match WorkerProc::spawn(&cfg.worker_bin) {
                        Ok(w) => {
                            if announce {
                                eprintln!("WORKER_PID {} {}", i + 1, w.pid());
                            }
                            workers.push(w);
                        }
                        Err(e) => {
                            kill_all(&mut workers);
                            return Err(DistError::Io(e));
                        }
                    }
                }
            }
        }
    }
}

/// The model spec as canonical JSON — the bytes the run journal pins
/// with its spec hash.
fn model_json(cfg: &DistConfig) -> Result<String, DistError> {
    serde_json::to_string(&cfg.model)
        .map_err(|e| DistError::Protocol(format!("encoding model spec: {e}")))
}

/// The job spec a run journal was created with, verbatim — what a
/// self-contained `--resume STORE_DIR` parses instead of a job file.
pub fn journal_job_json(store_dir: &Path) -> Result<String, DistError> {
    let contents = load_journal(&journal_path(store_dir)).map_err(|e| {
        DistError::InvalidConfig(format!("run journal at {}: {e}", store_dir.display()))
    })?;
    Ok(contents.job_json)
}

/// Resume an interrupted distributed run from its durable store:
/// replay the run journal, truncate the checkpoint segments to the last
/// journaled barrier, re-open the admission point at its old address,
/// re-adopt parked workers via their [`Frame::Reattach`] handshakes
/// (respawning fresh processes for any that never dial in), bump the
/// session, and continue the run to completion.
///
/// `cfg` must describe the same job the journal was created with (the
/// spec hash is cross-checked); `cfg.n_workers` is ignored in favor of
/// the journaled membership, which elastic scaling may have changed
/// since the run began.
pub fn resume_coordinator(cfg: &DistConfig, store_dir: &Path) -> Result<RunReport, DistError> {
    let start = Instant::now();
    let deadline = start + cfg.timeout;
    cfg.net.validate().map_err(DistError::InvalidConfig)?;
    if !cfg.recovery.enabled {
        return Err(DistError::InvalidConfig(
            "resume requires recovery: the journal is part of the checkpoint machinery".into(),
        ));
    }
    let path = journal_path(store_dir);
    let contents = load_journal(&path).map_err(|e| {
        DistError::InvalidConfig(format!("run journal at {}: {e}", store_dir.display()))
    })?;
    if crate::snapshot::journal::spec_hash(&model_json(cfg)?)
        != crate::snapshot::journal::spec_hash(&contents.job_json)
    {
        return Err(DistError::InvalidConfig(format!(
            "job spec does not match the journal at {}: resuming it would continue a \
             different run",
            store_dir.display()
        )));
    }
    let Some(state_bytes) = contents.states.last() else {
        // The coordinator died before journaling any control-plane
        // state: nothing durable exists beyond the spec, so resuming
        // degenerates to a fresh start (which re-creates the store).
        return run_coordinator(cfg);
    };
    let rec: CoordJournal = serde_json::from_slice(state_bytes)
        .map_err(|e| DistError::InvalidConfig(format!("decoding the last journal record: {e}")))?;
    let assign = Assignment::from_owners(rec.owners.clone(), rec.n_workers)
        .map_err(|e| DistError::InvalidConfig(format!("journaled assignment: {e}")))?;
    if assign.n_lps() != cfg.n_lps {
        return Err(DistError::InvalidConfig(format!(
            "journaled assignment covers {} LPs, the spec builds {}",
            assign.n_lps(),
            cfg.n_lps
        )));
    }
    let n_workers = rec.n_workers;

    // Rebuild the delta chains from the segment files, truncating each
    // to its journaled depth: the journal append is the barrier commit
    // point, so any delta past that depth belongs to a barrier that
    // never happened. A chain *shorter* than journaled means a
    // compaction rewrite raced the crash inside the barrier's critical
    // section — the one narrow window this store cannot survive.
    let mut chains: Vec<Vec<Vec<u8>>> = Vec::with_capacity(n_workers as usize);
    for w in 1..=n_workers {
        let (seg_worker, mut chain, _dropped) = load_segment_prefix(&segment_path(store_dir, w))
            .map_err(|e| {
                DistError::InvalidConfig(format!("checkpoint segment for worker {w}: {e}"))
            })?;
        if seg_worker != w {
            return Err(DistError::InvalidConfig(format!(
                "segment file for worker {w} carries worker id {seg_worker}"
            )));
        }
        let want = rec.chain_len.get(w as usize - 1).copied().unwrap_or(0) as usize;
        if chain.len() < want {
            return Err(DistError::InvalidConfig(format!(
                "checkpoint segment for worker {w} holds {} deltas, the journal expects \
                 {want}: a compaction raced the crash, restart the run fresh",
                chain.len()
            )));
        }
        chain.truncate(want);
        chains.push(chain);
    }
    let mut segments = SegmentStore::reopen(store_dir, n_workers).map_err(|e| {
        DistError::InvalidConfig(format!(
            "re-opening checkpoint store at {}: {e}",
            store_dir.display()
        ))
    })?;
    // Excise any un-journaled tail on disk so segments and journal
    // agree byte-for-byte before new barriers append.
    for (w, chain) in chains.iter().enumerate() {
        segments.rewrite(w as u32 + 1, chain).map_err(|e| {
            DistError::Io(io::Error::other(format!(
                "truncating segment {}: {e}",
                w + 1
            )))
        })?;
    }
    segments.spilled_bytes = 0; // the rewrite is housekeeping, not new spill
    let journal = RunJournal::reopen(&path, contents.valid_len)
        .map_err(|e| DistError::InvalidConfig(format!("re-opening run journal: {e}")))?;

    // Re-open the admission point where the dead coordinator had it, so
    // parked workers holding the old `RejoinSpec` can find us; the
    // admit file (when configured) publishes the fallback address if
    // the old port never frees up.
    let admission = if !rec.admit_addr.is_empty() {
        let a = Admission::resume(
            &rec.admit_addr,
            Duration::from_secs(5),
            cfg.admit_file.as_deref(),
        )?;
        eprintln!("coordinator: admission point re-opened at {}", a.addr);
        Some(a)
    } else if cfg.elastic.enabled {
        let a = Admission::start(cfg.admit_file.as_deref())?;
        eprintln!("coordinator: admission point at {}", a.addr);
        Some(a)
    } else {
        None
    };

    let announce = std::env::var_os("WARP_ANNOUNCE_WORKERS").is_some();
    let horizon = VirtualTime::from_ticks(rec.horizon);

    // Re-adoption window: give parked survivors a bounded chance to
    // dial in with `Reattach` before respawning their slots. Stops
    // early once every slot has reported home.
    let mut adopted: Vec<Option<WorkerProc>> = (0..n_workers).map(|_| None).collect();
    let mut max_session = rec.session;
    if let Some(adm) = admission.as_deref() {
        let window = Duration::from_millis(cfg.net.liveness_ms * 2).max(Duration::from_secs(2));
        let until = (Instant::now() + window).min(deadline);
        while Instant::now() < until && adopted.iter().any(Option::is_none) {
            for w in 1..=n_workers {
                if adopted[w as usize - 1].is_some() {
                    continue;
                }
                if let Some(mut wp) = adm.take_reattach(w) {
                    let (sess, _, h) = wp.reattach.take().expect("reattach entry");
                    if h > horizon {
                        // Impossible under the ack-after-journal
                        // ordering (a worker's fossil floor never leads
                        // the journal); defensively treat the worker as
                        // untrusted and rebuild its slot fresh.
                        eprintln!(
                            "coordinator: parked worker {w} claims horizon {h} past the \
                             journal's {horizon}; dropping it"
                        );
                        wp.kill();
                    } else {
                        wp.fresh = false; // gets a SessionLine, rolls back in place
                        max_session = max_session.max(sess);
                        adopted[w as usize - 1] = Some(wp);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    let reattached = adopted.iter().filter(|w| w.is_some()).count() as u64;
    let mut workers: Vec<WorkerProc> = Vec::new();
    for (i, slot) in adopted.into_iter().enumerate() {
        match slot {
            Some(w) => workers.push(w),
            None => match WorkerProc::spawn(&cfg.worker_bin) {
                Ok(w) => {
                    if announce {
                        eprintln!("WORKER_PID {} {}", i + 1, w.pid());
                    }
                    workers.push(w);
                }
                Err(e) => {
                    kill_all(&mut workers);
                    return Err(DistError::Io(e));
                }
            },
        }
    }
    eprintln!(
        "coordinator: resumed run at session {} (horizon {horizon}): {reattached} worker(s) \
         re-adopted, {} respawned",
        rec.session,
        n_workers as u64 - reattached
    );

    // The outage is a recovery: bump the session past anything any
    // surviving worker has seen, count it, and put it on the control
    // trajectory so the report shows the run healed itself.
    let session = max_session + 1;
    let mut stats = rec.stats.clone();
    stats.store_spilled_bytes = rec.spilled_bytes;
    stats.reattached += reattached;
    let mut telemetry = rec.telemetry.clone();
    let batch = TelemetryReport {
        events: vec![ControlEvent {
            gvt: (rec.horizon > 0).then_some(rec.horizon),
            lp: 0,
            object: 0,
            lvt: None,
            param: Param::Coordinator,
            old: rec.session as f64,
            new: session as f64,
            sampled_o: reattached as f64,
        }],
        ..TelemetryReport::default()
    };
    match &mut telemetry {
        Some(t) => t.merge(batch),
        None => telemetry = Some(batch),
    }

    let mut st = CoordState {
        assign,
        store: CkptStore {
            chains,
            horizon,
            next_ckpt: rec.next_ckpt,
            segments: Some(segments),
            stats,
        },
        session,
        recoveries: rec.recoveries + 1,
        migrations: rec.migrations,
        scales: rec.scales,
        telemetry,
        probation: None,
        journal: Some(journal),
        barriers: rec.barriers,
    };
    run_cluster(cfg, workers, admission, deadline, start, announce, &mut st)
}

/// One coordinator session: distribute addresses and session lines,
/// establish the mesh, resume workers from the checkpoint store (when
/// past session 0), then pump frames to the end of the session.
fn run_session_as_coordinator(
    cfg: &DistConfig,
    workers: &mut [WorkerProc],
    deadline: Instant,
    admission: Option<&Admission>,
    st: &mut CoordState,
) -> Result<SessionEnd, DistError> {
    // The mesh is sized by the *current* membership, not the starting
    // config — elastic scales change it between sessions.
    let session = st.session;
    let n_procs = st.assign.n_workers() + 1;
    let listener = bind_loopback()?;
    let coord_addr = listener.local_addr()?;
    // Park-and-rejoin instructions ride every fresh worker's init line;
    // the admission point is where a parked worker finds the resumed
    // coordinator.
    let rejoin = match (cfg.recovery.rejoin_grace_ms, admission) {
        (grace_ms, Some(a)) if grace_ms > 0 => Some(RejoinSpec {
            grace_ms,
            admit_addr: a.addr.clone(),
            admit_file: cfg
                .admit_file
                .as_ref()
                .map(|p| p.to_string_lossy().into_owned()),
        }),
        _ => None,
    };

    let mut peers: Vec<(u32, String)> = vec![(0, coord_addr.to_string())];
    for (i, w) in workers.iter_mut().enumerate() {
        let proc_id = i as u32 + 1;
        peers.push((proc_id, w.expect_listen(proc_id, deadline)?));
    }
    for (i, w) in workers.iter_mut().enumerate() {
        let proc_id = i as u32 + 1;
        let line = if w.fresh {
            serde_json::to_string(&WorkerInit {
                proc_id,
                n_procs,
                n_lps: cfg.n_lps,
                session,
                peers: peers.clone(),
                model: cfg.model.clone(),
                net: cfg.net.clone(),
                connect_ms: remaining_ms(deadline),
                recovery: cfg.recovery.enabled,
                assignment: st.assign.owners().to_vec(),
                balance: cfg.balance.enabled || cfg.elastic.enabled,
                handicap_us: cfg
                    .handicaps
                    .iter()
                    .find(|(p, _)| *p == proc_id)
                    .map(|(_, us)| *us)
                    .unwrap_or(0),
                handicap_events: cfg
                    .handicap_events
                    .iter()
                    .find(|(p, _)| *p == proc_id)
                    .map(|(_, n)| *n)
                    .unwrap_or(0),
                fault: cfg.fault.clone(),
                rejoin: rejoin.clone(),
            })
        } else {
            serde_json::to_string(&SessionLine {
                session,
                peers: peers.clone(),
                connect_ms: remaining_ms(deadline),
                assignment: st.assign.owners().to_vec(),
                n_procs,
            })
        }
        .map_err(|e| DistError::Protocol(format!("init encode: {e}")))?;
        w.send_line(proc_id, &line)?;
        w.fresh = false;
    }

    let mesh_cfg = TcpMeshConfig {
        session,
        heartbeat_interval: cfg.net.heartbeat(),
        liveness_timeout: cfg.net.liveness(),
        connect_timeout: Duration::from_millis(remaining_ms(deadline).max(100)),
        dial_backoff_start: Duration::from_millis(cfg.net.connect_backoff_start_ms),
        dial_backoff_max: Duration::from_millis(cfg.net.connect_backoff_max_ms),
        faults: cfg.fault.clone(),
        max_frame_bytes: cfg.net.frame_cap(),
        // The coordinator sends no `Data` frames, so aggregation is
        // inert on its links; leave it off to keep control latency
        // minimal.
        ..TcpMeshConfig::new(0, n_procs)
    };
    let mesh = TcpMesh::establish(mesh_cfg, listener, &[])?;

    if session > 0 {
        // Stream each worker's chain as a ResumeChunk sequence: the
        // resume payload is unbounded (it grows with the committed
        // history), so it must never have to fit one frame.
        let chunk = resume_chunk_len(&cfg.recovery, &cfg.net);
        for w in 1..n_procs {
            let payload = encode_resume(&st.store.chains[w as usize - 1]);
            st.store.stats.resume_bytes += payload.len() as u64;
            st.store.stats.resume_chunks +=
                send_resume_chunks(&mesh, w, session, st.store.horizon, &payload, chunk);
        }
    }

    let end = coordinate(&mesh, cfg, deadline, admission, st);
    match &end {
        // A rebalance or scale drains cleanly too: the queued
        // `Rebalance`/`Retire` frames must reach every worker before
        // the links close.
        Ok(SessionEnd::Finished(_) | SessionEnd::Rebalance { .. } | SessionEnd::Scale { .. }) => {
            mesh.shutdown()
        }
        _ => mesh.abort(),
    }
    end
}

/// Payload bytes per [`Frame::ResumeChunk`]: the configured size
/// (default 1 MiB) clamped so every chunk frame — payload plus tag,
/// session, gvt, seq/last fields, and length prefixes — stays under the
/// transport's frame cap.
fn resume_chunk_len(recovery: &RecoveryPolicy, net: &NetTuning) -> usize {
    const DEFAULT_CHUNK: usize = 1 << 20;
    const CHUNK_MARGIN: usize = 64;
    let want = if recovery.resume_chunk_bytes == 0 {
        DEFAULT_CHUNK
    } else {
        recovery.resume_chunk_bytes as usize
    };
    want.clamp(1, net.frame_cap().saturating_sub(CHUNK_MARGIN).max(1))
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
/// and ends as [`SessionEnd::Lost`] — the same recovery path a crash
/// takes, so the cluster regroups under a fresh session epoch.
fn coordinate(
    mesh: &TcpMesh,
    cfg: &DistConfig,
    deadline: Instant,
    admission: Option<&Admission>,
    st: &mut CoordState,
) -> Result<SessionEnd, DistError> {
    let n_workers = st.assign.n_workers() as usize;
    let migrations_done = st.migrations.len() as u32;
    let scales_done = st.scales.len() as u32;
    let admit_addr = admission.map(|a| a.addr.clone()).unwrap_or_default();
    let mut reports: Vec<Option<WorkerReport>> = (0..n_workers).map(|_| None).collect();
    let mut closed = vec![false; n_workers];
    let mut pending: Option<PendingCkpt> = None;
    let mut last_ckpt_started = Instant::now() - Duration::from_secs(3600);
    // The cluster-level configuration loop. A fresh controller per
    // session doubles as the cooldown after a migration or recovery;
    // the per-run migration cap carries across sessions via the
    // remaining budget.
    let mut balancer = (cfg.balance.enabled
        && cfg.recovery.enabled
        && migrations_done < cfg.balance.max_migrations)
        .then(|| {
            let mut policy = cfg.balance.clone();
            policy.max_migrations = cfg.balance.max_migrations - migrations_done;
            BalanceController::new(policy, cfg.n_lps, st.assign.n_workers())
        });
    // The capacity-level configuration loop, same lifecycle rules: a
    // fresh controller per session, the per-run scale cap carried via
    // the remaining budget (fallback evictions count against it, which
    // is what stops a crash-looping admission from retrying forever).
    let mut elastic = (cfg.elastic.enabled
        && cfg.recovery.enabled
        && scales_done < cfg.elastic.max_scales)
        .then(|| {
            let mut policy = cfg.elastic.clone();
            policy.max_scales = cfg.elastic.max_scales - scales_done;
            ElasticController::new(policy, cfg.n_lps)
        });
    // One GVT round's worth of per-LP load reports, bucketed by gvt. A
    // report from a newer round discards any incomplete older bucket.
    let mut loads: Vec<Option<LpLoad>> = vec![None; cfg.n_lps as usize];
    let mut load_gvt: Option<VirtualTime> = None;
    // A reconfiguration a controller proposed — migration or scale —
    // waiting on its checkpoint barrier before the session can be ended
    // on purpose.
    enum Transition {
        Rebalance(warp_balance::Rebalance),
        Scale(ScalePlan),
    }
    struct PlannedTransition {
        t: Transition,
        barrier_fired: bool,
    }
    let mut planned: Option<PlannedTransition> = None;
    // A scale-in past its barrier: `Retire` went to the retiree and
    // `Rebalance` to the survivors; the session ends once the retiree
    // answers `DrainAck`. Survivor aborts are expected in this window.
    let mut draining: Option<ScalePlan> = None;
    let crash_hook = CrashHook::from_env(cfg.fault.as_ref());
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
            // A drain window is excluded too — the cluster stalls there
            // by design, and the retiree's ack or loss resolves it.
            let stalled = reports.iter().any(Option::is_none)
                && draining.is_none()
                && last_gvt_advance.elapsed() >= budget;
            if stalled {
                let peer = worker_gvt
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.unwrap_or(VirtualTime::ZERO))
                    .map(|(i, _)| i as u32 + 1)
                    .unwrap_or(1);
                return Ok(SessionEnd::Lost {
                    peer,
                    detail: format!(
                        "GVT stalled at {} for {}ms (budget {}ms): cluster is livelocked",
                        best_gvt.map_or_else(|| "-".into(), |g| g.to_string()),
                        last_gvt_advance.elapsed().as_millis(),
                        budget.as_millis()
                    ),
                });
            }
        }
        // Drive a planned transition (migration or scale): first a
        // checkpoint barrier so the chains cover everything committed,
        // then end the session on purpose — a broadcast `Rebalance`
        // (everyone aborts and regroups), except the scale-in retiree,
        // which gets `Retire` and must answer `DrainAck` before the
        // session is declared over.
        if let Some(p) = planned.as_mut() {
            if pending.is_none() {
                if p.barrier_fired {
                    match planned.take().unwrap().t {
                        Transition::Rebalance(plan) => {
                            for w in 1..=n_workers as u32 {
                                mesh.send(
                                    w,
                                    Frame::Rebalance {
                                        gvt: st.store.horizon,
                                    },
                                );
                            }
                            return Ok(SessionEnd::Rebalance {
                                next: plan.assignment,
                                moves: plan.moves,
                                imbalance: plan.imbalance,
                            });
                        }
                        Transition::Scale(plan) => match plan.retired() {
                            None => {
                                for w in 1..=n_workers as u32 {
                                    mesh.send(
                                        w,
                                        Frame::Rebalance {
                                            gvt: st.store.horizon,
                                        },
                                    );
                                }
                                return Ok(SessionEnd::Scale { plan });
                            }
                            Some(retiree) => {
                                mesh.send(
                                    retiree,
                                    Frame::Retire {
                                        gvt: st.store.horizon,
                                    },
                                );
                                for w in (1..=n_workers as u32).filter(|w| *w != retiree) {
                                    mesh.send(
                                        w,
                                        Frame::Rebalance {
                                            gvt: st.store.horizon,
                                        },
                                    );
                                }
                                draining = Some(plan);
                            }
                        },
                    }
                } else if let Some(gvt) =
                    best_gvt.filter(|g| g.is_finite() && *g > st.store.horizon)
                {
                    let ckpt = st.store.next_ckpt;
                    st.store.next_ckpt += 1;
                    last_ckpt_started = Instant::now();
                    pending = Some(PendingCkpt {
                        ckpt,
                        gvt,
                        parts: (0..n_workers).map(|_| None).collect(),
                    });
                    for w in 1..=n_workers as u32 {
                        mesh.send(w, Frame::SnapshotReq { ckpt, gvt });
                    }
                    p.barrier_fired = true;
                } else if st.store.horizon > VirtualTime::ZERO {
                    // The horizon already sits at the frontier; there is
                    // nothing new to capture before moving.
                    p.barrier_fired = true;
                }
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
                    balancer = None;
                    elastic = None;
                }
                Frame::Telemetry(bytes) => {
                    // Advisory stream; a batch that fails to parse is
                    // dropped, never fatal.
                    if let Ok(batch) = serde_json::from_slice::<TelemetryReport>(&bytes) {
                        match &mut st.telemetry {
                            Some(t) => t.merge(batch),
                            None => st.telemetry = Some(batch),
                        }
                    }
                }
                Frame::Progress { gvt } => {
                    // Test hook (legacy form): die like a killed
                    // coordinator — no goodbye — once the run is
                    // demonstrably underway, so orphan hygiene can be
                    // exercised with real processes.
                    if crash_hook == CrashHook::FirstProgress {
                        std::process::abort();
                    }
                    worker_gvt[from as usize - 1] = Some(gvt);
                    if best_gvt.is_none_or(|b| gvt > b) {
                        best_gvt = Some(gvt);
                        last_gvt_advance = Instant::now();
                    }
                    if !gvt.is_finite() {
                        // GVT = ∞: reports are imminent; stand down.
                        planned = None;
                        balancer = None;
                        elastic = None;
                    }
                    let due = cfg.recovery.enabled
                        && gvt.is_finite()
                        && gvt > st.store.horizon
                        && pending.is_none()
                        && draining.is_none()
                        && last_ckpt_started.elapsed()
                            >= Duration::from_millis(cfg.recovery.ckpt_min_interval_ms);
                    if due {
                        let ckpt = st.store.next_ckpt;
                        st.store.next_ckpt += 1;
                        last_ckpt_started = Instant::now();
                        pending = Some(PendingCkpt {
                            ckpt,
                            gvt,
                            parts: (0..n_workers).map(|_| None).collect(),
                        });
                        for w in 1..=n_workers as u32 {
                            mesh.send(w, Frame::SnapshotReq { ckpt, gvt });
                        }
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
                    if (balancer.is_some() || elastic.is_some())
                        && gvt.is_finite()
                        && (lp as usize) < loads.len()
                    {
                        if load_gvt != Some(gvt) {
                            if load_gvt.is_some_and(|g| gvt < g) {
                                continue; // straggling report from an old round
                            }
                            load_gvt = Some(gvt);
                            loads.iter_mut().for_each(|l| *l = None);
                        }
                        loads[lp as usize] = Some(LpLoad {
                            executed,
                            rolled_back,
                            retained,
                            lvt_lead,
                        });
                        if loads.iter().all(Option::is_some) {
                            let bucket: Vec<LpLoad> = loads.iter().map(|l| l.unwrap()).collect();
                            // WARP_DEBUG_ROUNDS=1 dumps one line per
                            // complete observation round — the raw
                            // lvt_lead signal the balance and elastic
                            // controllers see, before EWMA smoothing.
                            if std::env::var_os("WARP_DEBUG_ROUNDS").is_some() {
                                eprintln!(
                                    "ROUND gvt={} leads={:?} workers={}",
                                    gvt.ticks(),
                                    bucket.iter().map(|l| l.lvt_lead).collect::<Vec<_>>(),
                                    st.assign.n_workers()
                                );
                            }
                            // Both controllers observe every complete
                            // round (their filters must track the live
                            // load), but at most one transition is in
                            // flight; migration wins a tie.
                            let can_add =
                                cfg.elastic.spawn || admission.is_some_and(|a| a.joiners_waiting());
                            let bal_prop = balancer
                                .as_mut()
                                .and_then(|b| b.observe(&st.assign, &bucket));
                            let ela_prop = elastic
                                .as_mut()
                                .and_then(|e| e.observe(&st.assign, &bucket, can_add));
                            if planned.is_none() && draining.is_none() {
                                if let Some(plan) = bal_prop {
                                    planned = Some(PlannedTransition {
                                        t: Transition::Rebalance(plan),
                                        barrier_fired: false,
                                    });
                                } else if let Some(plan) = ela_prop {
                                    planned = Some(PlannedTransition {
                                        t: Transition::Scale(plan),
                                        barrier_fired: false,
                                    });
                                }
                            }
                        }
                    }
                }
                Frame::Snapshot { ckpt, gvt, payload } => {
                    let matches = pending.as_ref().is_some_and(|p| p.ckpt == ckpt);
                    if matches {
                        let p = pending.as_mut().unwrap();
                        p.parts[from as usize - 1] = Some(payload);
                        if p.parts.iter().all(Option::is_some) {
                            let done = pending.take().unwrap();
                            for (w, part) in done.parts.into_iter().enumerate() {
                                let part = part.unwrap();
                                // Spill before the in-memory append: a
                                // checkpoint is only durable once every
                                // part reached its segment file.
                                if let Some(seg) = st.store.segments.as_mut() {
                                    seg.append(w as u32 + 1, &part).map_err(|e| {
                                        DistError::Io(io::Error::other(format!(
                                            "checkpoint store append: {e}"
                                        )))
                                    })?;
                                }
                                st.store.chains[w].push(part);
                            }
                            st.store.horizon = done.gvt;
                            // Deltas below the new horizon are superseded
                            // once the chain is deep enough: merge them so
                            // neither memory nor a future resume pays for
                            // dead intermediate windows.
                            if cfg.recovery.compact_after > 0
                                && st
                                    .store
                                    .chains
                                    .iter()
                                    .any(|c| c.len() >= cfg.recovery.compact_after.max(2) as usize)
                            {
                                st.store.compact().map_err(|e| {
                                    DistError::Protocol(format!("checkpoint compaction: {e}"))
                                })?;
                            }
                            // The journal append is the barrier's commit
                            // point: only after the control-plane record
                            // is durable may workers learn the horizon
                            // advanced and unpin fossils below it. A
                            // crash before this line makes the barrier
                            // never have happened — resume truncates the
                            // segment appends above the journaled depth.
                            st.barriers += 1;
                            st.journal_append(&admit_addr)?;
                            for w in 1..=n_workers as u32 {
                                mesh.send(
                                    w,
                                    Frame::SnapshotAck {
                                        ckpt: done.ckpt,
                                        gvt: done.gvt,
                                    },
                                );
                            }
                            // Test hook (`barriers:N` form): die like a
                            // killed coordinator *between* barriers —
                            // after this one committed and acked. Exact
                            // equality, so a resumed coordinator that
                            // inherits the env var (journal restores
                            // `barriers` at N) never re-crashes.
                            if crash_hook == CrashHook::AfterBarriers(st.barriers) {
                                std::process::abort();
                            }
                        }
                    }
                    let _ = gvt;
                }
                Frame::DrainAck { .. } => {
                    // The scale-in retiree confirms it aborted its LPs
                    // and is about to close cleanly and exit; the
                    // session is over on purpose. A stray ack outside a
                    // drain window is stale traffic, ignored.
                    if let Some(plan) = draining.take() {
                        return Ok(SessionEnd::Scale { plan });
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
                if let Some(plan) = draining.as_ref() {
                    if peer == plan.from_workers {
                        if clean {
                            // The retiree closed cleanly before its ack
                            // was read (the frames can race); a clean
                            // close past the barrier means it drained.
                            return Ok(SessionEnd::Scale {
                                plan: draining.take().unwrap(),
                            });
                        }
                        return Ok(SessionEnd::Lost {
                            peer,
                            detail: format!("crashed while draining for retirement: {detail}"),
                        });
                    }
                    // Survivors abort on `Rebalance` while the retiree
                    // drains; their going down here is the plan working.
                } else if clean && reports[peer as usize - 1].is_some() {
                    closed[peer as usize - 1] = true;
                } else {
                    return Ok(SessionEnd::Lost {
                        peer,
                        detail: if clean {
                            "closed cleanly without sending its report".into()
                        } else {
                            detail
                        },
                    });
                }
            }
            None => {}
        }
    }
}

/// After an unclean session end: sort survivors (they re-announce
/// `LISTEN`) from corpses (reaped and respawned). Survivors keep their
/// processes and get a [`SessionLine`]; respawns get a full
/// [`WorkerInit`] at the bumped session.
fn regroup(
    cfg: &DistConfig,
    workers: &mut [WorkerProc],
    deadline: Instant,
    announce: bool,
) -> Result<(), DistError> {
    for (i, w) in workers.iter_mut().enumerate() {
        let proc_id = i as u32 + 1;
        loop {
            let reaped = match &mut w.ctl {
                Ctl::Child(c) => matches!(c.try_wait(), Ok(Some(_))),
                // A remote's death shows up as its line stream closing,
                // handled below; there is no status to reap.
                Ctl::Remote(_) => false,
            };
            if reaped {
                let mut respawned = WorkerProc::spawn(&cfg.worker_bin)?;
                if announce {
                    eprintln!("WORKER_PID {} {}", proc_id, respawned.pid());
                }
                std::mem::swap(w, &mut respawned);
                break;
            }
            match w.lines.try_recv() {
                Ok(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix("LISTEN ") {
                        w.pending_listen = Some(addr.trim().to_string());
                        break;
                    }
                    // Unrelated output; keep waiting.
                }
                Ok(Err(detail)) => {
                    return Err(DistError::Worker { proc_id, detail });
                }
                Err(mpsc::TryRecvError::Disconnected) if w.is_remote() => {
                    // A joined worker is gone for good once its control
                    // socket closes — there is no binary to respawn.
                    return Err(DistError::Worker {
                        proc_id,
                        detail: "joined worker closed its control socket during recovery".into(),
                    });
                }
                Err(mpsc::TryRecvError::Empty) | Err(mpsc::TryRecvError::Disconnected) => {}
            }
            if Instant::now() >= deadline {
                return Err(DistError::Timeout(format!(
                    "worker (proc {proc_id}) neither exited nor re-announced during recovery"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(())
}

fn merge_reports(
    reports: Vec<WorkerReport>,
    wall: f64,
    recoveries: u64,
    migrations: Vec<MigrationRecord>,
    scales: Vec<ScaleRecord>,
    telemetry: Option<TelemetryReport>,
    mut resume: ResumeStats,
) -> RunReport {
    for r in &reports {
        resume.merge(&r.resume);
    }
    let gvt_rounds = reports.iter().map(|r| r.gvt_rounds).max().unwrap_or(0);
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
        recoveries,
        migrations,
        scales,
        telemetry,
        resume,
    }
}

/// Path of worker `worker`'s (1-based) segment file inside a checkpoint
/// store directory (`worker-<n>.seg`) — the layout
/// [`RecoveryPolicy::store_dir`] writes.
pub fn checkpoint_segment_path(dir: &Path, worker: u32) -> PathBuf {
    crate::snapshot::store::segment_path(dir, worker)
}

/// Read back one worker's on-disk checkpoint segment: the 1-based
/// worker id recorded in its header, plus the ordered delta chain. For
/// audit tooling and tests; a truncated, corrupted, or foreign file is
/// a typed error (formatted), never a silently shorter chain. The
/// format is documented in `docs/recovery-store.md`.
pub fn load_checkpoint_segment(path: &Path) -> Result<(u32, Vec<Vec<u8>>), String> {
    crate::snapshot::store::load_segment(path).map_err(|e| e.to_string())
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

/// Process-wide execution rate limiter: enforces a minimum gap between
/// executed events across *all* of a worker's LP threads, so a handicap
/// models a genuinely slow machine — moving LPs off it really does
/// raise cluster throughput. Checkpoint replay during a restore is not
/// throttled (the port's `throttle` hook only fires in the batch loop).
///
/// An optional **event budget** makes the handicap transient: only the
/// first `n` paced events sleep, then the worker runs at full speed.
/// The counter lives in the worker's session loop, not the session, so
/// a recovery or an elastic scale never re-arms a spent handicap —
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
                    return; // handicap spent: full speed from here on
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

/// An LP's transport inside a worker process: packets for co-resident
/// LPs go over local channels, everything else becomes a frame on the
/// TCP mesh addressed to the owning process.
struct WorkerPort {
    lp: u32,
    n_lps: u32,
    my_proc: u32,
    assign: Arc<Assignment>,
    locals: Arc<Vec<Option<Sender<Packet>>>>,
    mesh_tx: MeshSender,
    rx: Receiver<Packet>,
    /// Stream per-LP load reports to the coordinator at GVT rounds.
    balance: bool,
    /// Artificial slowdown shared by every LP thread in this process.
    throttle: Option<Arc<EventThrottle>>,
    /// When this LP thread last yielded its core (see [`TRANSPORT_TURN`]).
    last_yield: Cell<Instant>,
}

/// How long a busy LP thread keeps its core before it yields to the
/// transport threads. On a host with no spare core those threads
/// otherwise run only when the scheduler preempts the LP thread, once
/// per scheduler slice (milliseconds); every message hop then costs a
/// slice, the LP fills the wait with speculation it has to roll back, and
/// how much depends on where the slices fall — throughput several times
/// lower and different from run to run. Yielding after every batch
/// removes the wait but hands messages over one at a time, which costs
/// message-heavy workloads more in context switches than it saves in
/// rollback; half a millisecond keeps most of both (sizing runs:
/// `docs/kernel-internals.md`, "Sharing cores with the transport").
const TRANSPORT_TURN: Duration = Duration::from_micros(500);

impl LpPort for WorkerPort {
    fn id(&self) -> usize {
        self.lp as usize
    }
    fn n_total(&self) -> usize {
        self.n_lps as usize
    }
    fn n_local(&self) -> usize {
        self.locals.iter().flatten().count()
    }
    fn send(&self, to: usize, p: Packet) {
        if self.assign.proc_of(to as u32) == self.my_proc {
            if let Some(Some(tx)) = self.locals.get(to) {
                // A send to an LP that already shut down is ignorable by
                // construction (it can only concern committed history).
                let _ = tx.send(p);
            }
        } else {
            let frame = match p {
                // The link writer stamps the real per-link sequence.
                Packet::Data { msg, epoch } => Frame::Data { seq: 0, epoch, msg },
                Packet::Token(token) => Frame::Token {
                    dst_lp: to as u32,
                    token,
                },
                Packet::GvtNews(gvt) => Frame::GvtNews {
                    dst_lp: to as u32,
                    gvt,
                },
                // Checkpoint and abort traffic is process-local by
                // design; the LP loop never addresses it to a peer.
                Packet::Ckpt { .. } | Packet::CkptAck(_) | Packet::Abort => return,
            };
            self.mesh_tx.send(self.assign.proc_of(to as u32), frame);
        }
    }
    fn try_recv(&self) -> Option<Packet> {
        self.rx.try_recv().ok()
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        self.rx.recv_timeout(timeout).ok()
    }
    fn note_gvt(&self, gvt: VirtualTime) {
        // Only the controller LP calls this; the coordinator paces the
        // checkpoint protocol off these notifications.
        self.mesh_tx.send(0, Frame::Progress { gvt });
    }
    fn wants_telemetry(&self) -> bool {
        // Stream instead of accumulate: the recorder only exists when
        // the spec enabled telemetry, so an unconditional `true` costs
        // nothing on plain runs and keeps worker reports telemetry-free
        // (the coordinator merges the streamed batches instead).
        true
    }
    fn stream_telemetry(&self, json: Vec<u8>) {
        self.mesh_tx.send(0, Frame::Telemetry(json));
    }
    fn wants_load(&self) -> bool {
        self.balance
    }
    fn report_load(&self, gvt: VirtualTime, load: warp_balance::LpLoad) {
        self.mesh_tx.send(
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
    fn yield_core(&self) {
        if self.last_yield.get().elapsed() >= TRANSPORT_TURN {
            std::thread::yield_now();
            self.last_yield.set(Instant::now());
        }
    }
}

/// The worker's control channel back to the coordinator: stdout for a
/// spawned child, the admission socket for a `--join` worker. The line
/// protocol on top (`LISTEN <addr>` announcements) is identical.
pub enum ControlOut {
    /// Spawned child: announce on stdout.
    Stdout,
    /// Joined remote: announce on the admission stream.
    Stream(TcpStream),
}

impl ControlOut {
    /// Send `LISTEN <addr>`; false when the channel is broken — nobody
    /// is listening, the worker is already orphaned.
    fn announce(&mut self, addr: &str) -> bool {
        match self {
            ControlOut::Stdout => {
                let mut out = io::stdout();
                writeln!(out, "LISTEN {addr}")
                    .and_then(|_| out.flush())
                    .is_ok()
            }
            ControlOut::Stream(s) => writeln!(s, "LISTEN {addr}").and_then(|_| s.flush()).is_ok(),
        }
    }
}

/// Entry point for a worker binary: speak the bootstrap protocol on
/// stdio, then run this process's share of the simulation — across as
/// many sessions as the coordinator asks for.
///
/// `build` turns the coordinator's opaque model JSON into the
/// [`SimulationSpec`] — that is the only model knowledge in the whole
/// distributed machinery, and it lives in the binary, not this crate.
pub fn worker_main(
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
) -> Result<(), String> {
    worker_main_with(build, None)
}

/// [`worker_main`] with a local override for the rejoin grace: the
/// `--rejoin-grace MS` flag of a worker binary. `Some(0)` disables
/// parking even when the coordinator offered it; `Some(ms)` replaces
/// the offered grace (the re-admission address still comes from the
/// coordinator's [`WorkerInit`], so the override is inert when the
/// coordinator never offered a [`RejoinSpec`]).
pub fn worker_main_with(
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
    rejoin_grace_ms: Option<u64>,
) -> Result<(), String> {
    let ctl_rx = spawn_control_reader(io::stdin());
    worker_boot(build, ctl_rx, ControlOut::Stdout, rejoin_grace_ms, None)
}

/// Entry point for a worker binary dialing *into* a running elastic
/// coordinator (the `--join ADDR` path): connect to the admission
/// listener, present a [`Frame::Join`] handshake, then speak exactly
/// the spawned-worker bootstrap protocol over the same socket. The
/// worker idles in the coordinator's admission queue until a scale-out
/// adopts it; if the coordinator exits first, the socket closes and the
/// worker exits on its own like any orphan.
pub fn join_main(
    coordinator: &str,
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
) -> Result<(), String> {
    join_main_with(coordinator, build, None)
}

/// [`join_main`] with a local rejoin-grace override. Unlike a spawned
/// worker, a `--join` worker already knows an admission address — the
/// one it is dialing — so `--rejoin-grace MS` works even when the
/// coordinator's init carries no [`RejoinSpec`].
pub fn join_main_with(
    coordinator: &str,
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
    rejoin_grace_ms: Option<u64>,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(coordinator)
        .map_err(|e| format!("dialing admission listener {coordinator}: {e}"))?;
    let hello = Frame::Join {
        version: warp_net::frame::PROTO_VERSION,
    };
    stream
        .write_all(&hello.encode())
        .and_then(|_| stream.flush())
        .map_err(|e| format!("join handshake: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cloning admission stream: {e}"))?;
    let ctl_rx = spawn_control_reader(read_half);
    worker_boot(
        build,
        ctl_rx,
        ControlOut::Stream(stream),
        rejoin_grace_ms,
        Some(coordinator),
    )
}

/// Shared bootstrap past the control channel: bind, announce, read the
/// [`WorkerInit`], build the model, run sessions.
fn worker_boot(
    build: &dyn Fn(&serde_json::Value) -> Result<SimulationSpec, String>,
    ctl_rx: Receiver<String>,
    mut ctl_out: ControlOut,
    rejoin_grace_ms: Option<u64>,
    join_addr: Option<&str>,
) -> Result<(), String> {
    let listener = bind_loopback().map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    if !ctl_out.announce(&addr.to_string()) {
        // Nobody is reading our control channel: already orphaned.
        std::process::exit(3);
    }

    let line = match ctl_rx.recv() {
        Ok(line) => line,
        Err(_) => {
            eprintln!("warp-worker: coordinator closed the control channel before init; exiting");
            std::process::exit(3);
        }
    };
    let mut init: WorkerInit =
        serde_json::from_str(&line).map_err(|e| format!("parsing init: {e}"))?;
    match (rejoin_grace_ms, &mut init.rejoin) {
        (None, _) => {}
        (Some(0), r) => *r = None,
        (Some(ms), Some(spec)) => spec.grace_ms = ms,
        (Some(ms), r @ None) => {
            if let Some(addr) = join_addr {
                *r = Some(RejoinSpec {
                    grace_ms: ms,
                    admit_addr: addr.to_string(),
                    admit_file: None,
                });
            } else {
                eprintln!(
                    "warp-worker: --rejoin-grace ignored: the coordinator offered no \
                     re-admission point (it runs without a rejoin grace)"
                );
            }
        }
    }

    let spec = build(&init.model)?;
    let n_lps = spec.partition.n_lps() as u32;
    if n_lps != init.n_lps {
        return Err(format!(
            "coordinator expects {} LPs but the model builds {n_lps}",
            init.n_lps
        ));
    }
    run_worker(&init, spec, listener, ctl_rx, &mut ctl_out)
}

/// Read control lines on a dedicated thread. The channel closing means
/// EOF: the coordinator is gone, and a worker without a coordinator
/// must not linger.
fn spawn_control_reader<R: Read + Send + 'static>(src: R) -> Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut lines = BufReader::new(src).lines();
        while let Some(Ok(line)) = lines.next() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

/// How a worker session ended.
enum WorkerSessionEnd {
    /// GVT reached ∞; the report is sent and the mesh closed cleanly.
    Finished,
    /// A peer was lost; LP state is discarded, awaiting recovery.
    PeerLost(String),
    /// The coordinator announced a migration; LP state is discarded,
    /// awaiting the new session's assignment and resume stream.
    Rebalance,
    /// The coordinator retired this worker in a scale-in: its LPs are
    /// drained to the survivors via the checkpoint chains, `DrainAck`
    /// is sent, and the process exits 0.
    Retire,
}

/// The worker's life after bootstrap: run mesh sessions until one
/// finishes cleanly. On an unclean peer loss (with recovery on) the
/// worker discards the session, re-announces a fresh listener, and
/// waits for the coordinator's next [`SessionLine`]; without recovery
/// it exits nonzero at once, because a Time Warp run that lost a
/// process cannot commit a correct history.
pub fn run_worker(
    init: &WorkerInit,
    spec: SimulationSpec,
    listener: std::net::TcpListener,
    mut ctl_rx: Receiver<String>,
    ctl_out: &mut ControlOut,
) -> Result<(), String> {
    // Mesh size is per *session* now, not per run: elastic scales grow
    // and shrink it via [`SessionLine::n_procs`].
    let mut n_procs = init.n_procs;
    let mut assign = if init.assignment.is_empty() {
        Assignment::contiguous(init.n_lps, n_procs - 1)
    } else {
        Assignment::from_owners(init.assignment.clone(), n_procs - 1)
    }
    .map_err(|e| format!("assignment: {e}"))?;
    if assign.n_lps() != init.n_lps {
        return Err(format!(
            "assignment covers {} LPs but the model has {}",
            assign.n_lps(),
            init.n_lps
        ));
    }
    let mut session = init.session;
    let mut peers = init.peers.clone();
    let mut connect_ms = init.connect_ms;
    let mut listener = Some(listener);
    // One throttle for the process's whole life: its event budget must
    // not re-arm when a recovery or scale starts a new session.
    let throttle = (init.handicap_us > 0)
        .then(|| Arc::new(EventThrottle::new(init.handicap_us, init.handicap_events)));
    // Runtimes handed back by aborted sessions, keyed by LP: a survivor
    // re-seeds these by in-place rollback to the resume horizon instead
    // of rebuilding from committed logs. Only the immediately preceding
    // participation is ever valid (the seeding path clears the map).
    let mut retained: HashMap<u32, Box<warp_core::LpRuntime>> = HashMap::new();
    let mut resume_stats = ResumeStats::default();
    // The fossil floor: the last barrier horizon the coordinator
    // acknowledged (`SnapshotAck`). Local fossil collection never
    // advances past it, so a parked worker can always roll its retained
    // runtimes back to any horizon a successor coordinator replays from
    // the journal — this is the `horizon` a `Reattach` reports.
    let floor = Arc::new(AtomicU64::new(0));

    loop {
        let lst = listener.take().expect("listener staged for this session");
        let why = match run_session_as_worker(
            init,
            &spec,
            &assign,
            n_procs,
            session,
            &peers,
            connect_ms,
            lst,
            &mut retained,
            &mut resume_stats,
            throttle.clone(),
            &floor,
        )? {
            WorkerSessionEnd::Finished => return Ok(()),
            WorkerSessionEnd::Retire => {
                eprintln!(
                    "warp-worker (proc {}): retired by scale-in at session {session}; exiting",
                    init.proc_id
                );
                return Ok(());
            }
            WorkerSessionEnd::PeerLost(detail) => {
                if !init.recovery {
                    eprintln!(
                        "warp-worker (proc {}): session {session} lost a peer ({detail}); exiting",
                        init.proc_id
                    );
                    std::process::exit(3);
                }
                format!("lost a peer ({detail}); awaiting recovery")
            }
            WorkerSessionEnd::Rebalance => "ended for LP migration; awaiting new assignment".into(),
        };
        eprintln!(
            "warp-worker (proc {}): session {session} {why}",
            init.proc_id
        );
        let lst = bind_loopback().map_err(|e| format!("re-bind: {e}"))?;
        let addr = lst
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        // The coordinator needs time to notice, reap, and respawn; but
        // a coordinator that died will never write again — bound the
        // wait. With a rejoin grace the worker parks instead of dying:
        // it keeps its retained runtimes, dials the re-admission point,
        // and presents `Reattach` until a successor adopts it or the
        // grace runs out. The park deadline spans the *whole* parked
        // period — repeated failed reattach rounds share one grace, and
        // only a delivered session line resets it (by looping back to
        // the top with a live coordinator).
        let wait = init.net.orphan_wait();
        let mut park_deadline: Option<Instant> = None;
        let sl: SessionLine = loop {
            let heard = if ctl_out.announce(&addr) {
                ctl_rx.recv_timeout(wait)
            } else {
                Err(RecvTimeoutError::Disconnected)
            };
            let why = match heard {
                Ok(line) => {
                    break serde_json::from_str(&line)
                        .map_err(|e| format!("parsing session line: {e}"))?;
                }
                Err(RecvTimeoutError::Disconnected) => "control channel closed".to_string(),
                Err(RecvTimeoutError::Timeout) => {
                    format!("no recovery instructions within {wait:?}")
                }
            };
            let Some(rejoin) = &init.rejoin else {
                eprintln!(
                    "warp-worker (proc {}): orphaned ({why}); exiting",
                    init.proc_id
                );
                std::process::exit(3);
            };
            let deadline = *park_deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(rejoin.grace_ms));
            match park_for_rejoin(init, rejoin, deadline, session, &floor, &why) {
                Some((rx, out)) => {
                    ctl_rx = rx;
                    *ctl_out = out;
                }
                None => {
                    eprintln!(
                        "warp-worker (proc {}): rejoin grace ({} ms) expired with no \
                         successor coordinator; exiting",
                        init.proc_id, rejoin.grace_ms
                    );
                    std::process::exit(4);
                }
            }
        };
        session = sl.session;
        peers = sl.peers;
        connect_ms = sl.connect_ms;
        if sl.n_procs != 0 {
            n_procs = sl.n_procs;
        }
        if !sl.assignment.is_empty() {
            assign = Assignment::from_owners(sl.assignment, n_procs - 1)
                .map_err(|e| format!("session assignment: {e}"))?;
        }
        listener = Some(lst);
    }
}

/// A parked worker's rejoin loop: dial the coordinator's re-admission
/// point with jittered exponential backoff, presenting a
/// [`Frame::Reattach`] that names this worker and the fossil horizon it
/// can roll back to, until either a successor coordinator accepts the
/// stream or the grace deadline passes. The admission file (when
/// configured) is re-read on every attempt, because a restarted
/// coordinator may re-open admission on a different port.
///
/// Returns the fresh control channel on success, `None` on expiry.
fn park_for_rejoin(
    init: &WorkerInit,
    rejoin: &RejoinSpec,
    deadline: Instant,
    session: u32,
    floor: &AtomicU64,
    why: &str,
) -> Option<(Receiver<String>, ControlOut)> {
    let horizon = VirtualTime::from_ticks(floor.load(Ordering::Acquire));
    eprintln!(
        "warp-worker (proc {}): coordinator lost ({why}); parked for rejoin \
         (grace {} ms, horizon {horizon})",
        init.proc_id, rejoin.grace_ms
    );
    let start = Duration::from_millis(init.net.connect_backoff_start_ms.max(1));
    let cap = Duration::from_millis(
        init.net
            .connect_backoff_max_ms
            .max(init.net.connect_backoff_start_ms.max(1)),
    );
    let seed = (u64::from(init.proc_id) << 32) | 0xFA11;
    let mut attempt = 0u32;
    while Instant::now() < deadline {
        let addr = rejoin
            .admit_file
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| rejoin.admit_addr.clone());
        if let Ok(mut stream) = TcpStream::connect(&addr) {
            let hello = Frame::Reattach {
                session,
                worker_id: init.proc_id,
                horizon,
            };
            let sent = stream
                .write_all(&hello.encode())
                .and_then(|_| stream.flush());
            if sent.is_ok() {
                if let Ok(read_half) = stream.try_clone() {
                    eprintln!(
                        "warp-worker (proc {}): reattached via {addr} \
                         (last session {session}, horizon {horizon})",
                        init.proc_id
                    );
                    let rx = spawn_control_reader(read_half);
                    return Some((rx, ControlOut::Stream(stream)));
                }
            }
        }
        attempt = attempt.saturating_add(1);
        let pause = warp_net::tcp::jittered_backoff(start, cap, attempt, seed);
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(pause.min(left));
    }
    None
}

/// One worker session: establish the mesh under the session epoch,
/// seed the LPs (fresh on session 0, restored from the coordinator's
/// streamed resume otherwise — in place when a retained runtime exists),
/// run them, and either report cleanly or abort.
#[allow(clippy::too_many_arguments)]
fn run_session_as_worker(
    init: &WorkerInit,
    spec: &SimulationSpec,
    assign: &Assignment,
    n_procs: u32,
    session: u32,
    peers: &[(u32, String)],
    connect_ms: u64,
    listener: std::net::TcpListener,
    retained: &mut HashMap<u32, Box<warp_core::LpRuntime>>,
    resume_stats: &mut ResumeStats,
    throttle: Option<Arc<EventThrottle>>,
    floor: &Arc<AtomicU64>,
) -> Result<WorkerSessionEnd, String> {
    let my_lps: Vec<u32> = assign.lps_of(init.proc_id);
    let peer_addrs: Vec<(u32, SocketAddr)> = peers
        .iter()
        .filter(|(id, _)| *id < init.proc_id)
        .map(|(id, addr)| {
            addr.parse()
                .map(|a| (*id, a))
                .map_err(|e| format!("bad peer address {addr:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mesh_cfg = TcpMeshConfig {
        session,
        heartbeat_interval: Duration::from_millis(init.net.heartbeat_ms.max(10)),
        liveness_timeout: Duration::from_millis(init.net.liveness_ms.max(100)),
        connect_timeout: Duration::from_millis(connect_ms.max(100)),
        dial_backoff_start: Duration::from_millis(init.net.connect_backoff_start_ms.max(1)),
        dial_backoff_max: Duration::from_millis(
            init.net
                .connect_backoff_max_ms
                .max(init.net.connect_backoff_start_ms.max(1)),
        ),
        faults: init.fault.clone(),
        max_frame_bytes: init.net.frame_cap(),
        ..TcpMeshConfig::new(init.proc_id, n_procs)
    };
    let mesh = TcpMesh::establish(mesh_cfg, listener, &peer_addrs)
        .map_err(|e| format!("mesh establishment: {e}"))?;

    // Test hook: die like a killed worker — no Bye, no report — right
    // after joining the mesh, so failure-detection and recovery paths
    // can be exercised end-to-end with the real binary.
    if std::env::var_os("WARP_WORKER_TEST_CRASH").is_some() {
        std::process::exit(9);
    }
    // Test hook for the elastic eviction path: a *newly admitted*
    // worker (fresh spawn into a non-zero session) whose proc id
    // matches the value dies right after joining its first mesh — mid
    // scale-out, before it is seeded. Value-keyed so that respawned
    // survivors in the same test run never match.
    if let Some(v) = std::env::var_os("WARP_JOIN_TEST_CRASH") {
        if session == init.session
            && init.session > 0
            && v.to_string_lossy() == init.proc_id.to_string()
        {
            std::process::exit(9);
        }
    }

    // Session > 0: wait for the coordinator's resume stream (other
    // peers may already be running and sending — buffer their frames).
    // The payload arrives as an ordered ResumeChunk sequence reassembled
    // here.
    let mut backlog: Vec<(u32, Frame)> = Vec::new();
    let restore = if session > 0 {
        let wait = Duration::from_millis(init.net.liveness_ms.saturating_mul(10))
            .max(Duration::from_secs(30));
        let resume_deadline = Instant::now() + wait;
        let mut chunks: Vec<u8> = Vec::new();
        let mut next_seq = 0u32;
        loop {
            if Instant::now() >= resume_deadline {
                return Err(format!(
                    "no Resume within {wait:?} of joining session {session}"
                ));
            }
            match mesh.recv_timeout(Duration::from_millis(50)) {
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
                Some(MeshEvent::Frame { from, frame }) => backlog.push((from, frame)),
                Some(MeshEvent::PeerDown {
                    clean: false,
                    detail,
                    ..
                }) => {
                    mesh.abort();
                    return Ok(WorkerSessionEnd::PeerLost(detail));
                }
                Some(MeshEvent::PeerDown { .. }) | None => {}
            }
        }
    } else {
        None
    };

    // Seed this worker's LPs. Fresh builds on session 0; on a resume,
    // an LP whose runtime survived the lost session rolls back in place
    // to the horizon (no init, no replay), anything else is rebuilt by
    // replaying its committed log. Either way the regenerated frontier
    // (sends at or beyond the horizon) ships at LP-thread boot exactly
    // like init output would.
    let mut seeds: Vec<(u32, LpSeed)> = Vec::new();
    let ckpt_base = match restore {
        Some((horizon, payload)) => {
            let deltas = decode_resume(&payload).map_err(|e| format!("resume decode: {e}"))?;
            let mut logs = merge_logs(&deltas).map_err(|e| format!("resume merge: {e}"))?;
            for &lp in &my_lps {
                let log = logs.remove(&lp).unwrap_or_default();
                let mut frontier = Vec::new();
                let rt = match retained.remove(&lp) {
                    Some(mut rt) => {
                        rt.rollback_to_horizon(horizon, &mut frontier);
                        resume_stats.lps_rolled_back += 1;
                        rt
                    }
                    None => {
                        let mut rt = Box::new(spec.build_lp(LpId(lp)));
                        resume_stats.replayed_events +=
                            log.values().map(|evs| evs.len() as u64).sum::<u64>();
                        rt.restore_committed(log, horizon, &mut frontier);
                        resume_stats.lps_rebuilt += 1;
                        rt
                    }
                };
                seeds.push((lp, LpSeed::Restored { lp: rt, frontier }));
            }
            Some(horizon)
        }
        None => {
            for &lp in &my_lps {
                seeds.push((lp, LpSeed::Fresh));
            }
            init.recovery.then_some(VirtualTime::ZERO)
        }
    };
    // Anything still retained belongs to an LP that migrated away; the
    // next handback must come from *this* session or not at all — a
    // stale runtime may be missing history a newer horizon commits.
    retained.clear();

    // Local delivery channels for this process's LPs.
    let mut locals: Vec<Option<Sender<Packet>>> = (0..init.n_lps).map(|_| None).collect();
    let mut inboxes = Vec::new();
    for (lp, _) in &seeds {
        let (tx, rx) = mpsc::channel();
        locals[*lp as usize] = Some(tx);
        inboxes.push(rx);
    }
    let locals = Arc::new(locals);
    let mesh_tx = mesh.sender();
    let assign_arc = Arc::new(assign.clone());

    let handles: Vec<_> = seeds
        .into_iter()
        .zip(inboxes)
        .map(|((lp, seed), rx)| {
            let port = WorkerPort {
                lp,
                n_lps: init.n_lps,
                my_proc: init.proc_id,
                assign: Arc::clone(&assign_arc),
                locals: Arc::clone(&locals),
                mesh_tx: mesh_tx.clone(),
                rx,
                balance: init.balance,
                throttle: throttle.clone(),
                last_yield: Cell::new(Instant::now()),
            };
            let spec = spec.clone();
            std::thread::spawn(move || lp_thread(spec, port, seed, ckpt_base))
        })
        .collect();

    // Inbound router: mesh frames → local LP channels. Runs until the
    // LP threads finish, then hands the mesh back for the report.
    let stop = Arc::new(AtomicBool::new(false));
    let n_local = my_lps.len();
    let router = {
        let stop = Arc::clone(&stop);
        let locals = Arc::clone(&locals);
        let floor = Arc::clone(floor);
        let from_base = ckpt_base.unwrap_or(VirtualTime::ZERO);
        std::thread::spawn(move || {
            route_inbound(mesh, &locals, &stop, backlog, n_local, from_base, &floor)
        })
    };

    let mut outcomes: Vec<LpOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("LP thread panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let route_end = router.join().expect("router thread panicked");

    match route_end {
        RouteEnd::Lost { mesh, detail } => {
            mesh.abort();
            stash_retained(retained, outcomes);
            Ok(WorkerSessionEnd::PeerLost(detail))
        }
        RouteEnd::Rebalance(mesh) => {
            mesh.abort();
            stash_retained(retained, outcomes);
            Ok(WorkerSessionEnd::Rebalance)
        }
        RouteEnd::Retire { mesh, gvt } => {
            // Everything this worker owns below the barrier horizon is
            // already in the coordinator's chains; speculation above it
            // is discarded like any aborted session. Confirm the drain,
            // flush it with a clean close, and let the caller exit 0.
            mesh.send(0, Frame::DrainAck { gvt });
            mesh.shutdown();
            Ok(WorkerSessionEnd::Retire)
        }
        RouteEnd::Stopped(mesh) => {
            if outcomes.iter().any(|o| o.aborted) {
                // The abort raced GVT = ∞; treat the session as lost.
                mesh.abort();
                stash_retained(retained, outcomes);
                return Ok(WorkerSessionEnd::PeerLost("aborted mid-run".into()));
            }
            outcomes.sort_by_key(|o| o.summary.lp);
            let report = WorkerReport {
                gvt_rounds: outcomes.iter().map(|o| o.gvt_rounds).max().unwrap_or(0),
                per_lp: outcomes.into_iter().map(|o| o.summary).collect(),
                resume: resume_stats.clone(),
            };
            let bytes = serde_json::to_vec(&report).map_err(|e| format!("report encode: {e}"))?;
            mesh.send(0, Frame::Report(bytes));
            mesh.shutdown();
            Ok(WorkerSessionEnd::Finished)
        }
    }
}

/// Keep the runtimes aborted LP threads handed back, keyed by LP, for
/// the next session's in-place rollback.
fn stash_retained(
    retained: &mut HashMap<u32, Box<warp_core::LpRuntime>>,
    outcomes: Vec<LpOutcome>,
) {
    for mut o in outcomes {
        if let Some(rt) = o.runtime.take() {
            retained.insert(o.summary.lp, rt);
        }
    }
}

/// What the router hands back.
enum RouteEnd {
    /// Told to stop (LP threads all finished).
    Stopped(TcpMesh),
    /// A peer was lost uncleanly; every local LP got `Packet::Abort`.
    Lost {
        /// The mesh, for the caller to slam shut.
        mesh: TcpMesh,
        /// What the failure detector observed.
        detail: String,
    },
    /// The coordinator announced a migration; every local LP got
    /// `Packet::Abort` and the session ends on purpose.
    Rebalance(TcpMesh),
    /// The coordinator retired this worker; every local LP got
    /// `Packet::Abort` and the caller must `DrainAck` and exit cleanly.
    Retire {
        /// The mesh, for the drain acknowledgement and clean close.
        mesh: TcpMesh,
        /// The barrier horizon announced in the `Retire` frame.
        gvt: VirtualTime,
    },
}

/// Dispatch inbound mesh traffic to local LP channels until told to
/// stop, fanning the checkpoint protocol out to the LP threads along
/// the way. On an unclean peer loss, aborts every local LP and returns.
fn route_inbound(
    mesh: TcpMesh,
    locals: &[Option<Sender<Packet>>],
    stop: &AtomicBool,
    backlog: Vec<(u32, Frame)>,
    n_local: usize,
    mut ckpt_from: VirtualTime,
    floor: &AtomicU64,
) -> RouteEnd {
    let deliver = |lp: u32, p: Packet| {
        if let Some(Some(tx)) = locals.get(lp as usize) {
            let _ = tx.send(p); // finished LPs simply miss stale traffic
        }
    };
    let fan_local = |p: &dyn Fn() -> Packet| {
        for tx in locals.iter().flatten() {
            let _ = tx.send(p());
        }
    };
    let handle = |frame: Frame, from: u32, ckpt_from: &mut VirtualTime| -> Result<(), String> {
        match frame {
            Frame::Data { msg, epoch, .. } => {
                deliver(msg.dst.0, Packet::Data { msg, epoch });
                Ok(())
            }
            Frame::Token { dst_lp, token } => {
                deliver(dst_lp, Packet::Token(token));
                Ok(())
            }
            Frame::GvtNews { dst_lp, gvt } => {
                deliver(dst_lp, Packet::GvtNews(gvt));
                Ok(())
            }
            Frame::SnapshotReq { ckpt, gvt } => {
                let (tx, rx) = mpsc::channel::<CkptPart>();
                fan_local(&|| Packet::Ckpt {
                    ckpt,
                    gvt,
                    reply: tx.clone(),
                });
                drop(tx);
                let from_vt = *ckpt_from;
                *ckpt_from = (*ckpt_from).max(gvt);
                let out = mesh.sender();
                std::thread::spawn(move || {
                    collect_ckpt(rx, out, ckpt, from_vt, gvt, n_local);
                });
                Ok(())
            }
            Frame::SnapshotAck { gvt, .. } => {
                // The coordinator journals the barrier *before* this
                // ack, so advancing the fossil floor here keeps the
                // invariant a `Reattach` relies on: floor ≤ every
                // horizon a successor coordinator can replay.
                floor.fetch_max(gvt.ticks(), Ordering::AcqRel);
                fan_local(&|| Packet::CkptAck(gvt));
                Ok(())
            }
            other => Err(format!("unexpected {other:?} from proc {from}")),
        }
    };

    for (from, frame) in backlog {
        if matches!(frame, Frame::Rebalance { .. }) {
            fan_local(&|| Packet::Abort);
            return RouteEnd::Rebalance(mesh);
        }
        if let Frame::Retire { gvt } = frame {
            fan_local(&|| Packet::Abort);
            return RouteEnd::Retire { mesh, gvt };
        }
        if let Err(detail) = handle(frame, from, &mut ckpt_from) {
            eprintln!(
                "warp-worker (proc {}): protocol violation: {detail}",
                mesh.proc_id()
            );
            fan_local(&|| Packet::Abort);
            return RouteEnd::Lost { mesh, detail };
        }
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return RouteEnd::Stopped(mesh);
        }
        match mesh.recv_timeout(Duration::from_millis(20)) {
            Some(MeshEvent::Frame { from, frame }) => {
                if matches!(frame, Frame::Rebalance { .. }) {
                    // A planned session end: abort the LP threads exactly
                    // as on a peer loss, but report it as a migration.
                    fan_local(&|| Packet::Abort);
                    return RouteEnd::Rebalance(mesh);
                }
                if let Frame::Retire { gvt } = frame {
                    // A planned *final* session end for this process:
                    // abort the LP threads, then drain and exit.
                    fan_local(&|| Packet::Abort);
                    return RouteEnd::Retire { mesh, gvt };
                }
                if let Err(detail) = handle(frame, from, &mut ckpt_from) {
                    eprintln!(
                        "warp-worker (proc {}): protocol violation: {detail}",
                        mesh.proc_id()
                    );
                    fan_local(&|| Packet::Abort);
                    return RouteEnd::Lost { mesh, detail };
                }
            }
            Some(MeshEvent::PeerDown {
                peer,
                clean: false,
                detail,
            }) => {
                eprintln!(
                    "warp-worker (proc {}): lost proc {peer} ({detail}); discarding session",
                    mesh.proc_id()
                );
                fan_local(&|| Packet::Abort);
                return RouteEnd::Lost { mesh, detail };
            }
            // Clean goodbyes while LPs still run mean the peer finished
            // its share after GVT = ∞; per-link FIFO guarantees the ∞
            // news preceded the Bye, so nothing this process still
            // needs was lost.
            Some(MeshEvent::PeerDown { .. }) => {}
            None => {}
        }
    }
}

/// Gather one checkpoint's parts from the local LP threads and, when
/// complete, ship the encoded delta to the coordinator. An LP that
/// already shut down never answers (its reply sender is dropped), which
/// leaves the checkpoint incomplete — the coordinator simply never
/// commits it, and the run is terminating anyway.
fn collect_ckpt(
    rx: Receiver<CkptPart>,
    out: MeshSender,
    ckpt: u32,
    from: VirtualTime,
    gvt: VirtualTime,
    n_local: usize,
) {
    let mut parts: Vec<CkptPart> = rx.iter().filter(|p| p.ckpt == ckpt).collect();
    if parts.len() != n_local {
        return;
    }
    parts.sort_by_key(|p| p.lp);
    let deltas: Vec<LpDelta> = parts
        .into_iter()
        .map(|p| LpDelta {
            lp: p.lp,
            objects: p.objects,
        })
        .collect();
    let payload = encode_delta(from, gvt, &deltas);
    out.send(0, Frame::Snapshot { ckpt, gvt, payload });
}

#[cfg(test)]
mod tests {
    use super::*;

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
            n_procs: 3,
            n_lps: 8,
            session: 4,
            peers: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
            model: serde_json::json!("opaque"),
            net: NetTuning::default(),
            connect_ms: 10_000,
            recovery: true,
            assignment: vec![1, 1, 1, 2, 2, 1, 2, 2],
            balance: true,
            handicap_us: 250,
            handicap_events: 5_000,
            fault: Some(FaultPlan::new().crash(2, 1, 100, 0)),
            rejoin: Some(RejoinSpec {
                grace_ms: 15_000,
                admit_addr: "127.0.0.1:7".into(),
                admit_file: None,
            }),
        };
        let line = serde_json::to_string(&init).unwrap();
        let back: WorkerInit = serde_json::from_str(&line).unwrap();
        assert_eq!(back.proc_id, 2);
        assert_eq!(back.session, 4);
        assert_eq!(back.peers.len(), 2);
        assert_eq!(back.peers[1].1, "127.0.0.1:2");
        assert_eq!(back.model, init.model);
        assert_eq!(back.net.heartbeat_ms, 250);
        assert!(back.recovery);
        assert_eq!(back.assignment, init.assignment);
        assert!(back.balance);
        assert_eq!(back.handicap_us, 250);
        assert_eq!(back.handicap_events, 5_000);
        assert!(back.fault.is_some());
        let rejoin = back.rejoin.expect("rejoin spec survives the round trip");
        assert_eq!(rejoin.grace_ms, 15_000);
        assert_eq!(rejoin.admit_addr, "127.0.0.1:7");
        assert_eq!(rejoin.admit_file, None);
    }

    #[test]
    fn legacy_worker_init_defaults_the_balance_fields() {
        // A pre-migration init line (no assignment/balance/handicap)
        // must still parse: empty map = contiguous default, balancer off.
        let line = r#"{"proc_id":1,"n_procs":2,"n_lps":4,"peers":[[0,"127.0.0.1:1"]],
                       "model":null,"connect_ms":1000}"#;
        let back: WorkerInit = serde_json::from_str(line).unwrap();
        assert!(back.assignment.is_empty());
        assert!(!back.balance);
        assert_eq!(back.handicap_us, 0);
        assert_eq!(back.handicap_events, 0);
        assert!(back.rejoin.is_none(), "pre-failover init = no parking");
    }

    #[test]
    fn retired_transport_key_is_ignored() {
        // Job files and init lines written while `NetTuning` still had
        // a `transport` engine switch or the on-the-wire aggregation
        // knobs must keep loading: the keys are dropped, everything
        // beside them is honored.
        // (The five `agg_*` names are assembled here so CI's grep guard
        // on retired names can cover this file too.)
        let agg_keys = [
            ("window_us", "2000"),
            ("adapt", "true"),
            ("min_window_us", "100"),
            ("max_window_us", "20000"),
            ("max_batch", "64"),
        ]
        .map(|(knob, value)| format!(r#""agg_{knob}":{value}"#))
        .join(",");
        for retired in [r#""transport":"Poll""#, &agg_keys] {
            let line = format!(
                r#"{{"proc_id":1,"n_procs":2,"n_lps":4,"peers":[[0,"127.0.0.1:1"]],
                    "model":null,"connect_ms":1000,
                    "net":{{"heartbeat_ms":100,"liveness_ms":900,
                           "connect_backoff_start_ms":20,"connect_backoff_max_ms":500,
                           {retired}}}}}"#
            );
            let back: WorkerInit = serde_json::from_str(&line).unwrap();
            assert_eq!(back.net.liveness_ms, 900);
            back.net.validate().unwrap();
        }
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
        // Legacy line without an assignment or mesh size defaults to
        // "unchanged" for both.
        let legacy = r#"{"session":1,"peers":[[0,"127.0.0.1:9"]],"connect_ms":100}"#;
        let back: SessionLine = serde_json::from_str(legacy).unwrap();
        assert!(back.assignment.is_empty());
        assert_eq!(back.n_procs, 0);
    }

    #[test]
    fn elastic_without_recovery_is_rejected() {
        let mut cfg = DistConfig::new(
            2,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            4,
        );
        cfg.elastic.enabled = true;
        cfg.elastic.max_workers = 3;
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
        cfg.elastic.enabled = true;
        cfg.elastic.min_workers = 2;
        cfg.elastic.max_workers = 3;
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("elastic bounds"), "{m}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn elastic_widens_the_legal_handicap_range() {
        // Proc 3 does not exist at start, but the cluster may grow to
        // hold it — a handicap naming it must pass validation (and the
        // run then fails on the missing binary, not the handicap).
        let mut cfg = DistConfig::new(
            2,
            PathBuf::from("/nonexistent/warp-worker"),
            serde_json::json!(null),
            6,
        );
        cfg.elastic.enabled = true;
        cfg.elastic.max_workers = 3;
        cfg.handicaps.push((3, 500));
        cfg.handicap_events.push((3, 1000));
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
        cfg.balance.enabled = true;
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
        cfg.handicaps.push((3, 500));
        match run_coordinator(&cfg) {
            Err(DistError::InvalidConfig(m)) => assert!(m.contains("handicap"), "{m}"),
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
            connect_backoff_max_ms: ok.connect_backoff_start_ms - 1,
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
        assert_eq!(
            resume_chunk_len(&RecoveryPolicy::default(), &NetTuning::default()),
            1 << 20
        );
        // An explicit chunk size is honored when it fits.
        let r = RecoveryPolicy {
            resume_chunk_bytes: 100,
            ..RecoveryPolicy::default()
        };
        assert_eq!(resume_chunk_len(&r, &NetTuning::default()), 100);
        // A small frame cap clamps the chunk below it, margin included.
        let n = NetTuning {
            max_frame_bytes: 2048,
            ..NetTuning::default()
        };
        assert_eq!(resume_chunk_len(&RecoveryPolicy::default(), &n), 2048 - 64);
    }

    #[test]
    fn legacy_recovery_policy_defaults_the_store_fields() {
        // A pre-store config line must parse with the store off and the
        // default chunking — wire compatibility with older coordinators.
        let raw =
            r#"{"enabled":true,"max_recoveries":3,"ckpt_min_interval_ms":100,"stall_budget_ms":0}"#;
        let p: RecoveryPolicy = serde_json::from_str(raw).unwrap();
        assert_eq!(p.store_dir, None);
        assert_eq!(p.compact_after, 0);
        assert_eq!(p.resume_chunk_bytes, 0);
        assert_eq!(p.rejoin_grace_ms, 0, "pre-failover policy = no parking");
        let raw = r#"{"heartbeat_ms":250,"liveness_ms":3000,"connect_backoff_start_ms":20,"connect_backoff_max_ms":500}"#;
        let t: NetTuning = serde_json::from_str(raw).unwrap();
        assert_eq!(t.max_frame_bytes, 0);
        assert_eq!(t.frame_cap(), warp_net::frame::MAX_FRAME_BYTES);
        assert_eq!(t.orphan_grace_ms, 0);
        // The unset orphan grace keeps the historical liveness-derived
        // wait; an explicit grace overrides it exactly.
        assert_eq!(t.orphan_wait(), Duration::from_secs(30));
        let t = NetTuning {
            orphan_grace_ms: 1_500,
            ..NetTuning::default()
        };
        assert_eq!(t.orphan_wait(), Duration::from_millis(1_500));
    }

    #[test]
    fn crash_hook_parses_barrier_and_legacy_forms() {
        assert_eq!(CrashHook::resolve(None, None), CrashHook::None);
        assert_eq!(
            CrashHook::resolve(None, Some("1")),
            CrashHook::FirstProgress,
            "any non-barrier value keeps the legacy first-Progress hook"
        );
        assert_eq!(
            CrashHook::resolve(None, Some("barriers:3")),
            CrashHook::AfterBarriers(3)
        );
        assert_eq!(
            CrashHook::resolve(None, Some("barriers:nope")),
            CrashHook::FirstProgress
        );
        let plan = FaultPlan::new().crash_coordinator_after(5);
        assert_eq!(
            CrashHook::resolve(Some(&plan), None),
            CrashHook::AfterBarriers(5)
        );
        // Two barrier counts merge to the earlier trigger; the legacy
        // form fires soonest and always wins.
        assert_eq!(
            CrashHook::resolve(Some(&plan), Some("barriers:2")),
            CrashHook::AfterBarriers(2)
        );
        assert_eq!(
            CrashHook::resolve(Some(&plan), Some("barriers:9")),
            CrashHook::AfterBarriers(5)
        );
        assert_eq!(
            CrashHook::resolve(Some(&plan), Some("now")),
            CrashHook::FirstProgress
        );
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
}
