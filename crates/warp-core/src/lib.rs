//! # warp-core — a Time Warp optimistic simulation kernel
//!
//! A from-scratch Rust implementation of the Time Warp parallel discrete
//! event simulation kernel described (as the WARPED system) in
//! Radhakrishnan, Abu-Ghazaleh, Chetlur & Wilsey, *"On-line Configuration
//! of a Time Warp Parallel Discrete Event Simulator"*, ICPP 1998.
//!
//! Simulation objects ([`object::SimObject`]) exchange time-stamped
//! events and are grouped into logical processes ([`lp::LpRuntime`]).
//! Each object executes optimistically; causality violations (straggler
//! messages) are repaired by rollback with periodic-checkpoint restore
//! and coast-forward, and erroneous sends are undone by aggressive or
//! lazy cancellation ([`runtime::ObjectRuntime`]). Global Virtual Time
//! ([`gvt`]) bounds rollback and drives fossil collection.
//!
//! Everything configurable at run time — the checkpoint interval, the
//! cancellation strategy — is reached through the [`policy`] traits; the
//! adaptive (on-line configured) implementations live in the
//! `warp-control` crate, the communication/aggregation layer in
//! `warp-net`, and the executives that drive LPs in `warp-exec`.

#![warn(missing_docs)]

pub mod cost;
pub mod error;
pub mod event;
pub mod gvt;
pub mod ids;
pub mod image;
pub mod lp;
pub mod object;
pub mod partition;
pub mod policy;
pub mod queues;
pub mod rng;
pub mod runtime;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wire;

pub use cost::CostModel;
pub use error::KernelError;
pub use event::{Event, EventId, EventKey, Payload, Sign};
pub use ids::{LpId, NodeId, ObjectId};
pub use image::{LpImage, ObjectImage};
pub use lp::LpRuntime;
pub use object::{DynState, ErasedState, ExecutionContext, ObjectState, SimObject};
pub use partition::Partition;
pub use policy::{
    CancellationMode, CancellationSelector, CheckpointTuner, ControlChange, ControlTransition,
    FixedCancellation, FixedCheckpoint, ObjectPolicies,
};
pub use runtime::ObjectRuntime;
pub use stats::{CommStats, ObjectStats};
pub use time::VirtualTime;
