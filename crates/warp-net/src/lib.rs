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
//! * [`spsc`] — the threaded executive's transport: a full mesh of
//!   preallocated single-producer/single-consumer ring-buffer lanes
//!   between LP threads (see `docs/hot-path.md`).
//! * [`frame`] + [`tcp`] — the distributed executive's transport: a
//!   length-prefixed, versioned frame codec over the canonical
//!   `warp_core::wire` encoding, and a full TCP mesh of processes (a
//!   reader and a writer thread per link) with handshakes, heartbeats,
//!   sequencing and drain-then-close shutdown. It is the only
//!   inter-process engine; `docs/data-plane.md` records why.
//! * [`fault`] — deterministic, seeded fault injection (drop / duplicate
//!   / delay / partition / crash) applied at the sending side of each TCP
//!   link, so every recovery path is exercised reproducibly.
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
pub mod spsc;
pub mod tcp;

pub use aggregate::{Aggregator, PhysMsg};
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultScope, Selector};
pub use frame::{Frame, FrameDecoder, FrameError, PROTO_VERSION};
pub use policy::AggregationConfig;
pub use spsc::{lane_mesh, LaneEndpoint};
pub use tcp::{bind_loopback, MeshEvent, MeshSender, TcpMesh, TcpMeshConfig};
