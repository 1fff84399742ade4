//! # warp-models — benchmark applications for the warped-online kernel
//!
//! The two models the paper evaluates (available, it notes, in the
//! WARPED distribution), plus the standard PHOLD synthetic benchmark:
//!
//! * [`smmp`] — a 16-processor shared-memory multiprocessor (100
//!   simulation objects, 4 LPs): private caches in front of an
//!   interleaved, unserialized main memory. Uniformly favors lazy
//!   cancellation.
//! * [`raid`] — a RAID-5 disk array driven by 20 request sources through
//!   4 fork controllers to 8 disks (4 LPs). Disks favor lazy
//!   cancellation, forks aggressive — the heterogeneity Figure 6's
//!   dynamic-cancellation experiment exploits.
//! * [`phold`] — the classic synthetic PDES workload, for validation and
//!   stress beyond the paper's models.
//! * [`qnet`] — a closed FCFS queueing network whose queue-state
//!   dependence makes it favor *aggressive* cancellation uniformly — the
//!   temperament SMMP lacks, completing the spectrum of Section 5's
//!   observations.
//! * [`logic`] — gate-level digital circuits (the workload class behind
//!   the paper's Section 5 observations, which came from VHDL
//!   digital-system models): event-driven gates that propagate only on
//!   output change, making rollback re-execution hit-rich.
//! * [`serve`] — an open-arrival service-traffic cluster (diurnal rate,
//!   burst waves, Zipf tenant skew, batched GPU-style stations with a
//!   KV cache): the first workload whose *modeled* load drives the
//!   on-line cluster loop (LP migration and elastic membership).

#![warn(missing_docs)]

pub mod logic;
pub mod phold;
pub mod qnet;
pub mod raid;
pub mod serve;
pub mod smmp;
pub mod util;

pub use logic::Netlist;
pub use phold::PholdConfig;
pub use qnet::QnetConfig;
pub use raid::RaidConfig;
pub use serve::ServeConfig;
pub use smmp::SmmpConfig;
