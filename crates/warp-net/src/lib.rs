//! # warp-net — communication substrate for the Time Warp kernel
//!
//! One path per level: lock-free lanes between the LP threads of a
//! process, one TCP mesh between processes.
//!
//! * [`aggregate`] + [`policy`] — Dynamic Message Aggregation (DyMA):
//!   per-LP buffers that coalesce events to the same destination LP into
//!   physical messages, under the unaggregated / FAW / SAAW policy
//!   configurations (the SAAW adaptation law lives in `warp-control`).
//!   This is the only aggregation layer: the mesh below adds no
//!   batching window of its own.
//! * [`spsc`] — the in-process transport of both executives: a full
//!   mesh of preallocated single-producer/single-consumer ring-buffer
//!   lanes between the LP threads of one process (see
//!   `docs/hot-path.md`).
//! * [`frame`] + [`tcp`] — the distributed executive's transport: a
//!   length-prefixed, versioned frame codec over the canonical
//!   `warp_core::wire` encoding, and a full TCP mesh of processes with
//!   handshakes, heartbeats, an in-sequence check and drain-then-close
//!   shutdown.
//!   Senders write on their own thread; links to peer workers are pumped
//!   by their owner's threads, the rest keep one reader thread each. It is the only
//!   inter-process engine; `docs/data-plane.md` records why.
//! * [`poll`] — one `ppoll(2)` over several descriptors, and the
//!   `eventfd(2)` behind each lane's doorbell: a worker's LP parks on
//!   its lanes and its peer links in one call.
//! * [`fault`] — deterministic fault injection (partition / black hole /
//!   crash, the failures a TCP link has) applied at the sending side of
//!   each link, so every recovery path is exercised reproducibly.
//!
//! The *network itself* — the 10 Mb Ethernet of the paper's testbed — is
//! modeled by `warp_core::CostModel` (per-message CPU overheads, wire
//! latency, bandwidth) and realized by the executives: the virtual
//! cluster charges modeled time, the threaded executive moves real bytes.

#![warn(missing_docs)]

pub mod aggregate;
pub mod fault;
pub mod frame;
pub mod policy;
pub mod poll;
pub mod spsc;
pub mod tcp;

pub use aggregate::{Aggregator, EventBatch, PhysMsg};
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultScope, ProcFault};
pub use frame::{Frame, FrameDecoder, FrameError, PROTO_VERSION};
pub use policy::AggregationConfig;
pub use spsc::{lane_mesh, LaneEndpoint};
pub use tcp::{bind_loopback, MeshEvent, MeshSender, TcpMesh, TcpMeshConfig};
