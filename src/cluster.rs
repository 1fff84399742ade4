//! Model descriptions for distributed runs.
//!
//! The distributed executive in `warp-exec` is model-agnostic: the
//! coordinator ships an *opaque* JSON model description to each worker,
//! and the worker binary supplies the closure that turns it into a
//! [`SimulationSpec`]. This module is that closure's vocabulary — the
//! serializable union of models this repository can stage across
//! processes, plus the run options that must be identical on every
//! worker (GVT period, trace collection).
//!
//! Keeping the vocabulary here (and not in `warp-exec`) means adding a
//! model never touches the executive: extend [`ModelSpec`], rebuild the
//! `warp-worker` binary, done.

use serde::{Deserialize, Serialize};
use warp_balance::BalancePolicy;
use warp_elastic::ElasticPolicy;
use warp_exec::distributed::{run_coordinator, DistConfig, DistError, NetTuning, RecoveryPolicy};
use warp_exec::{RunReport, SimulationSpec};
use warp_models::{PholdConfig, QnetConfig, RaidConfig, ServeConfig, SmmpConfig};
use warp_net::{AggregationConfig, FaultPlan};

/// A serializable model choice for distributed runs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ModelSpec {
    /// The PHOLD synthetic benchmark.
    Phold(PholdConfig),
    /// The shared-memory multiprocessor model (paper §7).
    Smmp(SmmpConfig),
    /// The RAID disk-array model (paper §7).
    Raid(RaidConfig),
    /// The closed FCFS queueing network (aggressive temperament).
    Qnet(QnetConfig),
    /// The open-arrival service-traffic cluster (diurnal + burst load).
    Serve(ServeConfig),
}

impl ModelSpec {
    /// Build the model's baseline spec.
    fn base_spec(&self) -> SimulationSpec {
        match self {
            ModelSpec::Phold(cfg) => cfg.spec(),
            ModelSpec::Smmp(cfg) => cfg.spec(),
            ModelSpec::Raid(cfg) => cfg.spec(),
            ModelSpec::Qnet(cfg) => cfg.spec(),
            ModelSpec::Serve(cfg) => cfg.spec(),
        }
    }
}

/// One distributed run: the model plus the options every worker must
/// agree on for the committed histories to line up.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterJob {
    /// The model to simulate.
    pub model: ModelSpec,
    /// Wall seconds between GVT rounds (`None` disables fossil
    /// collection; required for trace digests).
    pub gvt_period: Option<f64>,
    /// Record per-object committed-trace digests.
    #[serde(default)]
    pub collect_traces: bool,
    /// Record telemetry on every worker (metric series + control
    /// trajectory), streamed to the coordinator and merged into the
    /// final report. Purely observational: never perturbs the run.
    #[serde(default)]
    pub telemetry: bool,
    /// DyMA policy every LP aggregates its cross-LP events under.
    /// Windows are wall seconds here: the real executives age buckets
    /// by the host clock.
    #[serde(default)]
    pub aggregation: AggregationConfig,
    /// Transport tuning (heartbeats, liveness, dial backoff) applied to
    /// every process in the mesh.
    #[serde(default)]
    pub net: NetTuning,
    /// Checkpoint-and-recovery policy for the run.
    #[serde(default)]
    pub recovery: RecoveryPolicy,
    /// On-line LP-migration policy (needs `recovery.enabled`).
    #[serde(default)]
    pub balance: BalancePolicy,
    /// Elastic cluster-membership policy: grow/shrink the worker set
    /// mid-run (needs `recovery.enabled`).
    #[serde(default)]
    pub elastic: ElasticPolicy,
    /// Artificial per-worker slowdowns, `(proc_id, gap_us)` pairs: that
    /// worker executes at most one event per `gap_us` microseconds.
    /// Benchmark/chaos knob for balance experiments.
    #[serde(default)]
    pub handicaps: Vec<(u32, u64)>,
    /// Like `handicaps`, but transient: `(proc_id, events)` caps how
    /// many events the slowdown applies to before the worker runs at
    /// full speed again. `0` = unlimited. Lets scale-out experiments
    /// inject a skew that later subsides, exercising scale-in too.
    #[serde(default)]
    pub handicap_events: Vec<(u32, u64)>,
    /// Deterministic fault plan to inject into the mesh (`None` =
    /// healthy links); mostly for chaos tests.
    #[serde(default)]
    pub fault: Option<FaultPlan>,
}

impl ClusterJob {
    /// A job with default transport tuning, recovery on, healthy links.
    pub fn new(model: ModelSpec, gvt_period: Option<f64>) -> Self {
        ClusterJob {
            model,
            gvt_period,
            collect_traces: false,
            telemetry: false,
            aggregation: AggregationConfig::Unaggregated,
            net: NetTuning::default(),
            recovery: RecoveryPolicy::default(),
            balance: BalancePolicy::default(),
            elastic: ElasticPolicy::default(),
            handicaps: Vec::new(),
            handicap_events: Vec::new(),
            fault: None,
        }
    }

    /// The fully-configured simulation spec this job describes.
    pub fn spec(&self) -> SimulationSpec {
        let mut spec = self
            .model
            .base_spec()
            .with_gvt_period(self.gvt_period)
            .with_aggregation(self.aggregation.clone());
        if self.collect_traces {
            spec = spec.with_traces();
        }
        if self.telemetry {
            spec = spec.with_telemetry();
        }
        spec
    }

    /// Total LP count of the model (drives LP→worker placement).
    pub fn n_lps(&self) -> u32 {
        self.spec().partition.n_lps() as u32
    }
}

/// The worker side: decode a coordinator's opaque model JSON into a
/// spec. This is the function `warp-worker` hands to
/// [`warp_exec::distributed::worker_main`].
pub fn spec_from_model_json(model: &serde_json::Value) -> Result<SimulationSpec, String> {
    let job: ClusterJob = serde_json::from_value(model.clone())
        .map_err(|e| format!("undecodable ClusterJob: {e}"))?;
    Ok(job.spec())
}

/// Build the executive config for `job` without running it. Callers
/// that need coordinator knobs the job itself doesn't carry (e.g. the
/// elastic admission file) tweak the result and hand it to
/// [`run_coordinator`] themselves.
pub fn dist_config(
    job: &ClusterJob,
    n_workers: u32,
    worker_bin: std::path::PathBuf,
    timeout: std::time::Duration,
) -> Result<DistConfig, DistError> {
    job.aggregation
        .validate()
        .map_err(DistError::InvalidConfig)?;
    let model =
        serde_json::to_value(job).map_err(|e| DistError::Protocol(format!("job encode: {e}")))?;
    Ok(DistConfig {
        n_workers,
        worker_bin,
        model,
        n_lps: job.n_lps(),
        timeout,
        net: job.net.clone(),
        recovery: job.recovery.clone(),
        balance: job.balance.clone(),
        elastic: job.elastic.clone(),
        handicaps: job.handicaps.clone(),
        handicap_events: job.handicap_events.clone(),
        fault: job.fault.clone(),
        admit_file: None,
    })
}

/// Recover the [`ClusterJob`] a durable run journal was created for:
/// the journal's job record *is* the serialized job (the coordinator
/// ships the whole job as its opaque model JSON), so resuming a run
/// needs nothing beyond its store directory. The returned job feeds
/// [`dist_config`] and then [`warp_exec::resume_coordinator`]; the
/// executive re-hashes the job against the journal header, so a job
/// edited between crash and resume is refused rather than silently
/// continued.
pub fn resume_job(store_dir: &std::path::Path) -> Result<ClusterJob, DistError> {
    let json = warp_exec::journal_job_json(store_dir)?;
    serde_json::from_str(&json)
        .map_err(|e| DistError::Protocol(format!("journaled job is undecodable: {e}")))
}

/// The coordinator side: run `job` across `n_workers` worker processes
/// using the given `warp-worker` binary, within `timeout`.
pub fn run_distributed_job(
    job: &ClusterJob,
    n_workers: u32,
    worker_bin: std::path::PathBuf,
    timeout: std::time::Duration,
) -> Result<RunReport, DistError> {
    run_coordinator(&dist_config(job, n_workers, worker_bin, timeout)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_job_round_trips_as_json() {
        let job = ClusterJob {
            collect_traces: true,
            telemetry: true,
            ..ClusterJob::new(ModelSpec::Smmp(SmmpConfig::small(50, 7)), None)
        };
        let v = serde_json::to_value(&job).unwrap();
        let spec = spec_from_model_json(&v).unwrap();
        assert_eq!(spec.partition.n_lps() as u32, job.n_lps());
        assert!(spec.collect_traces);
        assert!(spec.telemetry, "telemetry must reach every worker's spec");
        assert_eq!(spec.gvt_period, None);
    }

    #[test]
    fn aggregation_defaults_off_and_reaches_the_worker_spec() {
        // A job file written before the field existed.
        let model = serde_json::to_string(&ModelSpec::Phold(PholdConfig::new(50, 1))).unwrap();
        let v = serde_json::from_str(&format!(r#"{{"model":{model},"gvt_period":null}}"#)).unwrap();
        let spec = spec_from_model_json(&v).unwrap();
        assert_eq!(spec.aggregation, AggregationConfig::Unaggregated);

        let saaw = AggregationConfig::Saaw {
            initial_window: 2e-3,
            min_window: 50e-6,
            max_window: 20e-3,
        };
        let job = ClusterJob {
            aggregation: saaw.clone(),
            ..ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None)
        };
        let spec = spec_from_model_json(&serde_json::to_value(&job).unwrap()).unwrap();
        assert_eq!(spec.aggregation, saaw);
    }

    #[test]
    fn each_model_variant_builds_a_spec() {
        let jobs = [
            ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), Some(0.02)),
            ClusterJob {
                collect_traces: true,
                ..ClusterJob::new(ModelSpec::Smmp(SmmpConfig::small(20, 2)), None)
            },
            ClusterJob {
                collect_traces: true,
                ..ClusterJob::new(ModelSpec::Raid(RaidConfig::small(20, 3)), None)
            },
            ClusterJob {
                collect_traces: true,
                ..ClusterJob::new(ModelSpec::Qnet(QnetConfig::new(20, 4)), None)
            },
            ClusterJob {
                collect_traces: true,
                ..ClusterJob::new(ModelSpec::Serve(ServeConfig::small(5)), None)
            },
        ];
        for job in jobs {
            let v = serde_json::to_value(&job).unwrap();
            let spec = spec_from_model_json(&v).unwrap();
            assert!(spec.partition.n_lps() >= 2, "models must be splittable");
        }
    }
}
