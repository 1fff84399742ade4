//! # warp-control — on-line configuration by feedback control
//!
//! The paper's central contribution: a linear feedback-control framework
//! for configuring a running Time Warp simulator, applied to three facets
//! of the kernel. Each control system is an instance of the tuple
//! `<O, I, S, T, P>` (sampled output, configured parameter, initial
//! setting, transfer function, control period):
//!
//! | facet | `O` | `I` | module |
//! |-------|-----|-----|--------|
//! | checkpointing | cost index `Ec` (save + coast-forward cost) | interval χ | [`checkpoint`] |
//! | cancellation | Hit Ratio over a filter-depth window | aggressive/lazy | [`cancellation`] |
//! | aggregation | age-modified reception rate `R(age)` | window size `W` | [`aggregation`] |
//! | cluster (extension) | spread of per-worker LVT leads | LP→worker assignment, worker count included | [`cluster`] |
//!
//! Controllers plug into the kernel through the `warp_core::policy`
//! traits (and into the aggregation layer of `warp-net` through
//! [`aggregation::SaawLaw`]). They are pure state machines — cheap,
//! deterministic, and unit-testable in isolation, reflecting the paper's
//! observation that sampling and actuation compete with useful
//! computation for CPU cycles.

#![warn(missing_docs)]

pub mod aggregation;
pub mod cancellation;
pub mod checkpoint;
pub mod cluster;
pub mod framework;
pub mod hitwindow;

pub use aggregation::SaawLaw;
pub use cancellation::DynamicCancellation;
pub use checkpoint::{AdaptRule, DynamicCheckpoint};
pub use cluster::{ClusterController, ClusterPolicy};
pub use framework::DeadZone;
pub use hitwindow::HitWindow;
