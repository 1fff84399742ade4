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
use warp_control::ClusterPolicy;
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
    /// The cluster loop: LP migration and a growing or shrinking worker
    /// set (armed, it needs `recovery.enabled`). A job written with the
    /// `balance` and `elastic` sections it replaced loads through
    /// [`parse_job`].
    #[serde(default)]
    pub cluster: ClusterPolicy,
    /// Deterministic fault plan (`None` = a healthy run): link faults
    /// for the mesh, plus slowed workers (the skew the cluster loop's
    /// experiments need) and crashing workers or coordinator.
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
            cluster: ClusterPolicy::default(),
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
/// [`warp_exec::join_main`].
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
        cluster: job.cluster.clone(),
        telemetry: job.telemetry,
        fault: job.fault.clone(),
        admit_file: None,
    })
}

/// The executive config that continues the run a durable store was
/// created for, for [`warp_exec::resume_coordinator`]. The segment
/// file's job record *is* the serialized job (the coordinator ships the
/// whole job as its opaque model JSON), so resuming a run needs nothing
/// beyond its store directory. The record goes out again verbatim as
/// the model: the executive compares the two byte for byte (a job
/// edited between crash and resume is refused rather than silently
/// continued), and a record an older build wrote may hold a retired key
/// at its default, which this build would not write back.
pub fn resume_config(
    store_dir: &std::path::Path,
    n_workers: u32,
    worker_bin: std::path::PathBuf,
    timeout: std::time::Duration,
) -> Result<DistConfig, DistError> {
    let json = warp_exec::stored_job_json(store_dir)?;
    let stored = |e: String| DistError::InvalidConfig(format!("stored job: {e}"));
    let job = parse_job(&json).map_err(stored)?;
    let mut cfg = dist_config(&job, n_workers, worker_bin, timeout)?;
    cfg.model = serde_json::from_str(&json).map_err(|e| stored(e.to_string()))?;
    Ok(cfg)
}

/// Keys a job may no longer set, with the reason: `(section, key, why)`.
/// A build that still had one wrote 0 there by default, which is what a
/// run does now anyway, so a 0 loads (and a store such a build wrote
/// still resumes); any other value is refused, not ignored.
const RETIRED_KEYS: [(&str, &str, &str); 3] = [
    (
        "recovery",
        "compact_after",
        "checkpoints are per-LP images, replaced at each barrier, so there is no history \
         left to compact",
    ),
    (
        "recovery",
        "rejoin_grace_ms",
        "workers no longer park when the coordinator dies: a resume respawns every worker \
         and restores its LPs from their images",
    ),
    (
        "net",
        "orphan_grace_ms",
        "an orphaned worker waits max(10 x liveness_ms, 30 s) for recovery instructions, \
         then exits",
    ),
];

/// The `balance` section of a job written before the cluster loop was
/// one, as such a build wrote it.
#[derive(Deserialize)]
struct LegacyBalance {
    enabled: bool,
    dead_zone: f64,
    patience: u32,
    warmup_rounds: u32,
    max_moves: u32,
    min_lps: u32,
    max_migrations: u32,
}

/// The `elastic` section of a job written before the cluster loop was
/// one, as such a build wrote it.
#[derive(Deserialize)]
struct LegacyElastic {
    enabled: bool,
    min_workers: u32,
    max_workers: u32,
    scale_out_pressure: f64,
    scale_in_pressure: f64,
    patience: u32,
    warmup_rounds: u32,
    max_scales: u32,
    spawn: bool,
}

/// Map a job's pre-merge `balance` and `elastic` sections onto one
/// [`ClusterPolicy`] (`None` when the job has neither). A disabled
/// section maps to nothing. An enabled balance section brings its move
/// budget, an enabled elastic one its worker bounds, scale budget,
/// spawn switch and low threshold; when both are enabled, balance's
/// threshold, patience and warmup win, as migration won a tie between
/// the two loops.
fn legacy_cluster(job: &serde_json::Value) -> Result<Option<ClusterPolicy>, String> {
    let (balance, elastic) = (job.get("balance"), job.get("elastic"));
    if balance.is_none() && elastic.is_none() {
        return Ok(None);
    }
    if job.get("cluster").is_some() {
        return Err(
            "a job sets `cluster` or the `balance` and `elastic` sections it \
                    replaced, not both"
                .into(),
        );
    }
    let balance: Option<LegacyBalance> = balance
        .map(|v| serde_json::from_value(v.clone()))
        .transpose()
        .map_err(|e| format!("`balance`: {e}"))?;
    let elastic: Option<LegacyElastic> = elastic
        .map(|v| serde_json::from_value(v.clone()))
        .transpose()
        .map_err(|e| format!("`elastic`: {e}"))?;
    let mut policy = ClusterPolicy::default();
    if let Some(e) = elastic.filter(|e| e.enabled) {
        policy = ClusterPolicy {
            high: e.scale_out_pressure,
            low: e.scale_in_pressure,
            patience: e.patience,
            warmup_rounds: e.warmup_rounds,
            workers: Some((e.min_workers, e.max_workers)),
            max_scales: e.max_scales,
            spawn: e.spawn,
            ..policy
        };
    }
    if let Some(b) = balance.filter(|b| b.enabled) {
        if (b.max_moves, b.min_lps) != (1, 1) {
            return Err(
                "`balance.max_moves` and `balance.min_lps` are retired: a migration \
                        moves one LP and leaves the straggler at least one (both must be 1)"
                    .into(),
            );
        }
        policy = ClusterPolicy {
            high: b.dead_zone,
            low: policy.low.min(b.dead_zone),
            patience: b.patience,
            warmup_rounds: b.warmup_rounds,
            max_migrations: b.max_migrations,
            ..policy
        };
    }
    Ok(Some(policy))
}

/// Decode a job file (or a stored job). The slow-worker lists that
/// preceded `fault.procs` are refused, not ignored: a job that still
/// carries one would otherwise run with no skew at all, and an
/// experiment with the cluster loop would pass or fail for the wrong
/// reason. So is a retired knob (checkpoint compaction, the rejoin and
/// the orphan grace) set to anything but 0. The `balance` and `elastic`
/// sections the `cluster` policy replaced load onto it.
pub fn parse_job(json: &str) -> Result<ClusterJob, String> {
    let value: serde_json::Value =
        serde_json::from_str(json).map_err(|e| format!("undecodable ClusterJob: {e}"))?;
    for key in ["handicaps", "handicap_events"] {
        if value.get(key).is_some() {
            return Err(format!(
                "`{key}` is retired: slow a worker with a `Slow` entry in `fault.procs` \
                 (or --slow PROC:MICROS[:EVENTS])"
            ));
        }
    }
    for (section, key, why) in RETIRED_KEYS {
        let set = value.get(section).and_then(|s| s.get(key));
        if set.is_some_and(|v| v.as_u64() != Some(0)) {
            return Err(format!("`{section}.{key}` is retired: {why}"));
        }
    }
    let legacy = legacy_cluster(&value)?;
    let mut job: ClusterJob =
        serde_json::from_value(value).map_err(|e| format!("undecodable ClusterJob: {e}"))?;
    if let Some(policy) = legacy {
        job.cluster = policy;
    }
    Ok(job)
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
    fn job_files_carry_proc_faults_and_refuse_the_retired_slow_lists() {
        let mut job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        job.fault = Some(FaultPlan::new().slow(1, 200, 0).crash_coordinator(2));
        let json = serde_json::to_string(&job).unwrap();
        let back = parse_job(&json).unwrap();
        assert_eq!(back.fault, job.fault);

        for retired in ["handicaps", "handicap_events"] {
            let old = json.replacen('{', &format!(r#"{{"{retired}":[[1,200]],"#), 1);
            let err = parse_job(&old).unwrap_err();
            assert!(
                err.contains(retired) && err.contains("fault.procs") && err.contains("--slow"),
                "{err}"
            );
        }
        assert!(parse_job("{").unwrap_err().contains("undecodable"));
    }

    #[test]
    fn job_files_refuse_the_retired_packet_faults() {
        let mut job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        job.fault = Some(FaultPlan::new().partition(2, 1, 60, 0));
        let json = serde_json::to_string(&job).unwrap();
        assert_eq!(parse_job(&json).unwrap().fault, job.fault);
        // A frame lost inside a live connection is a fault TCP cannot
        // produce: the job is refused, not loaded as a healthy plan.
        let kind = r#"{"Partition":{"after":60}}"#;
        assert!(json.contains(kind), "{json}");
        let old = json.replacen(kind, r#"{"Drop":{"At":60}}"#, 1);
        let err = parse_job(&old).unwrap_err();
        assert!(err.contains("`Drop`"), "{err}");
    }

    #[test]
    fn job_files_refuse_the_retired_compaction_knob() {
        let job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        let json = serde_json::to_string(&job).unwrap();
        assert!(parse_job(&json).is_ok());
        // The compaction knob, the rejoin grace and the orphan grace:
        // refused when set, loaded at the 0 the builds that had them
        // wrote by default.
        for (section, key, _) in RETIRED_KEYS {
            let at = format!(r#""{section}":{{"#);
            let with = |v: u64| json.replacen(&at, &format!(r#"{at}"{key}":{v},"#), 1);
            assert_ne!(with(3), json, "the job carries a {section} section");
            let err = parse_job(&with(3)).unwrap_err();
            assert!(err.contains(key) && err.contains("retired"), "{err}");
            assert!(section == "net" || err.contains("images"), "{err}");
            assert!(parse_job(&with(0)).is_ok(), "{key}: 0");
        }
    }

    /// A job as a build with two cluster loops wrote it: `balance` and
    /// `elastic` sections where `cluster` is now.
    fn pre_merge_job(balance: bool, elastic: bool, max_moves: u32) -> String {
        let job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        let json = serde_json::to_string(&job).unwrap();
        let at = json
            .find(r#""cluster":{"#)
            .expect("the job carries a cluster section");
        let end = at + json[at..].find('}').unwrap() + 1;
        let sections = format!(
            r#""balance":{{"enabled":{balance},"dead_zone":0.4,"patience":3,"warmup_rounds":2,"max_moves":{max_moves},"min_lps":1,"max_migrations":3}},"elastic":{{"enabled":{elastic},"min_workers":2,"max_workers":3,"scale_out_pressure":0.6,"scale_in_pressure":0.45,"patience":1,"warmup_rounds":1,"max_scales":2,"spawn":false}}"#
        );
        format!("{}{sections}{}", &json[..at], &json[end..])
    }

    #[test]
    fn a_pre_merge_balance_job_maps_onto_moves_only() {
        let job = parse_job(&pre_merge_job(true, false, 1)).unwrap();
        let want = ClusterPolicy {
            high: 0.4,
            patience: 3,
            warmup_rounds: 2,
            max_migrations: 3,
            ..ClusterPolicy::default()
        };
        assert_eq!(job.cluster, want);
        assert!(job.cluster.armed() && job.cluster.workers.is_none());
    }

    #[test]
    fn a_pre_merge_elastic_job_maps_onto_scaling_only() {
        let job = parse_job(&pre_merge_job(false, true, 1)).unwrap();
        let want = ClusterPolicy {
            high: 0.6,
            low: 0.45,
            patience: 1,
            warmup_rounds: 1,
            max_migrations: 0,
            workers: Some((2, 3)),
            max_scales: 2,
            spawn: false,
        };
        assert_eq!(job.cluster, want);
    }

    #[test]
    fn a_pre_merge_job_with_both_loops_takes_balances_shared_values() {
        let job = parse_job(&pre_merge_job(true, true, 1)).unwrap();
        // Balance's threshold, patience and warmup win, as migration won
        // a tie; the low threshold never rises above the high one.
        let want = ClusterPolicy {
            high: 0.4,
            low: 0.4,
            patience: 3,
            warmup_rounds: 2,
            max_migrations: 3,
            workers: Some((2, 3)),
            max_scales: 2,
            spawn: false,
        };
        assert_eq!(job.cluster, want);
        // Neither enabled: unarmed, whatever the sections hold.
        let off = parse_job(&pre_merge_job(false, false, 7)).unwrap();
        assert_eq!(off.cluster, ClusterPolicy::default());
    }

    #[test]
    fn pre_merge_jobs_refuse_what_the_one_loop_cannot_do() {
        let err = parse_job(&pre_merge_job(true, false, 2)).unwrap_err();
        assert!(
            err.contains("max_moves") && err.contains("retired"),
            "{err}"
        );
        let both = pre_merge_job(true, false, 1).replacen('{', r#"{"cluster":{},"#, 1);
        let err = parse_job(&both).unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // A job written now round-trips.
        let job = ClusterJob {
            cluster: ClusterPolicy {
                workers: Some((1, 3)),
                ..ClusterPolicy::default()
            },
            ..ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None)
        };
        let back = parse_job(&serde_json::to_string(&job).unwrap()).unwrap();
        assert_eq!(back.cluster, job.cluster);
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
