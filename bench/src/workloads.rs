//! The four workloads and the configurations the executives run them in.
//!
//! Every workload has two LPs, so the threaded executive uses two LP
//! threads and the distributed one two worker processes of one LP each —
//! the host's two cores. The same layer is used differently by each:
//! pending set large (`phold-dense`) or small (the other three), state
//! large (`smmp-paper`) or tiny (`qnet-storm`), cross-LP traffic none
//! (`phold-dense`) or heavy (`qnet-storm`).

use std::sync::Arc;
use warp_control::{DynamicCancellation, DynamicCheckpoint};
use warp_core::policy::ObjectPolicies;
use warp_exec::SimulationSpec;
use warp_models::{PholdConfig, QnetConfig, ServeConfig, SmmpConfig};
use warp_net::AggregationConfig;
use warped_online::cluster::{ClusterJob, ModelSpec};

/// Wall seconds between GVT rounds: `SimulationSpec::new`'s default.
pub const GVT_PERIOD: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PholdDense,
    SmmpPaper,
    ServeSteady,
    QnetStorm,
}

/// How much of a workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Size {
    /// The size every timed rep runs.
    Full,
    /// One eighth of it: the digest checks and `--quick`.
    Eighth,
    /// As little as the model allows: a distributed session of this size
    /// is all set-up (spec build, spawns, handshake, mesh, first
    /// barrier, report, teardown).
    Minimal,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Eighth => "eighth",
            Size::Minimal => "minimal",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Full, Size::Eighth, Size::Minimal]
            .into_iter()
            .find(|z| z.name() == s)
    }

    /// Scale a full-size count.
    fn of(self, full: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Eighth => full / 8,
            Size::Minimal => 1,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PholdDense,
        Workload::SmmpPaper,
        Workload::ServeSteady,
        Workload::QnetStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PholdDense => "phold-dense",
            Workload::SmmpPaper => "smmp-paper",
            Workload::ServeSteady => "serve-steady",
            Workload::QnetStorm => "qnet-storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The model at `size`; `seed` becomes the model's own seed.
    pub fn model(self, seed: u64, size: Size) -> ModelSpec {
        match self {
            // 4k pending events per object and no cross-LP hop at all:
            // pending set, history queues, GVT and fossil collection do
            // the work; transport, rollback and cancellation do none.
            Workload::PholdDense => ModelSpec::Phold(PholdConfig {
                n_objects: 4,
                n_lps: 2,
                population_per_object: size.of(4096) as usize,
                ttl: if size == Size::Minimal { 1 } else { 30 },
                mean_delay: 5000.0,
                locality: 1.0,
                seed,
            }),
            // The paper's model 1: ~8 KB cache states make state saving,
            // coast-forward and resident memory dominate.
            Workload::SmmpPaper => ModelSpec::Smmp(SmmpConfig {
                n_lps: 2,
                ..SmmpConfig::paper(size.of(3000), seed)
            }),
            // Open arrivals, heavier handlers, state-dependent rollbacks.
            Workload::ServeSteady => ModelSpec::Serve(ServeConfig {
                n_lps: 2,
                horizon_us: if size == Size::Minimal {
                    2000
                } else {
                    size.of(4_000_000)
                },
                ..ServeConfig::small(seed)
            }),
            // Aggressive-cancellation cascades: about half of all hops
            // cross the LP boundary and each premature one spawns
            // anti-messages, so transport and idle wait do the work.
            Workload::QnetStorm => ModelSpec::Qnet(QnetConfig {
                n_lps: 2,
                ..QnetConfig::new(size.of(1500) as u32, seed)
            }),
        }
    }

    /// The job the distributed executive runs: every default of
    /// `ClusterJob::new` (transport tuning, recovery policy), the model's
    /// own static policies. With `digests` the run keeps its whole
    /// history (no GVT-driven fossil collection) and reports per-object
    /// committed-trace digests.
    pub fn job(self, seed: u64, size: Size, digests: bool) -> ClusterJob {
        let gvt_period = if digests { None } else { Some(GVT_PERIOD) };
        ClusterJob {
            collect_traces: digests,
            ..ClusterJob::new(self.model(seed, size), gvt_period)
        }
    }
}

/// The paper's on-line configuration on top of `spec`: dynamic
/// cancellation, dynamic checkpoint interval, adaptive aggregation.
pub fn online(spec: SimulationSpec) -> SimulationSpec {
    spec.with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
            Box::new(DynamicCheckpoint::new(1, 64, 64)),
        )
    }))
    .with_aggregation(AggregationConfig::saaw(1e-3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("phold"), None);
        for z in [Size::Full, Size::Eighth, Size::Minimal] {
            assert_eq!(Size::parse(z.name()), Some(z));
        }
    }

    #[test]
    fn every_workload_has_two_lps_at_every_size() {
        for w in Workload::ALL {
            for z in [Size::Full, Size::Eighth, Size::Minimal] {
                assert_eq!(w.job(1, z, false).n_lps(), 2, "{} {}", w.name(), z.name());
            }
        }
    }
}
