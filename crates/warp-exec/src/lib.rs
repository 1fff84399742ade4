//! # warp-exec — executives for the Time Warp kernel
//!
//! Three ways to drive the same simulation specification:
//!
//! * [`sequential`] — single event list in strict timestamp order: the
//!   golden model that defines correct committed histories.
//! * [`virtual_cluster`] — a deterministic discrete-event simulation of
//!   the paper's network-of-workstations testbed: per-node CPU clocks
//!   charged from the cost model, wire latency and bandwidth on every
//!   physical message. This is the substrate all figures are reproduced
//!   on ("execution time" = modeled completion time).
//! * [`threaded`] — one OS thread per LP over a mesh of SPSC lanes with
//!   Mattern-token GVT: the kernel as a real parallel program.
//! * [`distributed`] — the threaded kernel spread across OS processes: a
//!   coordinator spawns worker binaries, LP blocks run per worker on the
//!   same LP loop and the same lanes, and frames cross a TCP mesh
//!   between the processes.
//!
//! All four consume a [`spec::SimulationSpec`] and produce a
//! [`report::RunReport`].

#![warn(missing_docs)]

pub mod distributed;
pub mod report;
pub mod sequential;
mod snapshot;
pub mod spec;
pub mod threaded;
pub mod virtual_cluster;

pub use distributed::{
    checkpoint_segment_path, join_main, load_checkpoint_segment, resume_coordinator,
    run_coordinator, stored_job_json, DistConfig, DistError, NetTuning, RecoveryPolicy,
};
pub use report::{LpSummary, ObjectSummary, ResumeStats, RunReport};
pub use sequential::run_sequential;
pub use spec::{ObjectFactory, PolicyFactory, SimulationSpec};
pub use threaded::run_threaded;
pub use virtual_cluster::{run_virtual, run_virtual_inspect, run_virtual_with, VirtualOptions};
