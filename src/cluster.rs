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
    /// collection).
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
    /// set (armed, it needs `recovery.enabled`).
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
/// continued). The record is read through [`parse_job`], so a stored job
/// obeys the same key rule as a job file.
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

/// Decode a job file (or a stored job). Its keys must be exactly the
/// keys this build writes: the job is decoded, encoded again, and the
/// first key of the input the encoding lacks is refused by its dotted
/// path (`recovery.stall_budget`, `fault.rules[0].Partition.x`). A key
/// this build does not read would otherwise be dropped and the run go
/// on without it: a typo of a defaulted knob, or a section an older
/// build read, would run as something else. A missing key takes its
/// default.
pub fn parse_job(json: &str) -> Result<ClusterJob, String> {
    let undecodable = |e: serde_json::Error| format!("undecodable ClusterJob: {e}");
    let value: serde_json::Value = serde_json::from_str(json).map_err(undecodable)?;
    let job: ClusterJob = serde_json::from_value(value.clone()).map_err(undecodable)?;
    let written = serde_json::to_value(&job).map_err(undecodable)?;
    match unread_key(&value, &written, "") {
        Some(path) => Err(format!("`{path}` is not a job key this build reads")),
        None => Ok(job),
    }
}

/// The dotted path, below `at`, of the first object key in `input` that
/// has no counterpart at the same place in `written`; arrays are walked
/// element by element.
fn unread_key(input: &serde_json::Value, written: &serde_json::Value, at: &str) -> Option<String> {
    use serde_json::Value;
    match input {
        Value::Map(fields) => fields.iter().find_map(|(key, v)| {
            let path = if at.is_empty() {
                key.clone()
            } else {
                format!("{at}.{key}")
            };
            match written.get(key) {
                None => Some(path),
                Some(w) => unread_key(v, w, &path),
            }
        }),
        Value::Seq(items) => items.iter().enumerate().find_map(|(i, v)| {
            let w = written.as_array().and_then(|w| w.get(i));
            unread_key(v, w.unwrap_or(&Value::Null), &format!("{at}[{i}]"))
        }),
        _ => None,
    }
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
            assert!(err.contains(&format!("`{retired}`")), "{err}");
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
    fn a_job_key_this_build_does_not_read_is_refused() {
        let mut job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        job.fault = Some(FaultPlan::new().partition(2, 1, 60, 0));
        let json = serde_json::to_string(&job).unwrap();
        assert!(parse_job(&json).is_ok());
        // `(after, key, path refused)`: the key goes in right after the
        // first `after`. (A retired knob's name is assembled, so CI's
        // guard on retired names covers this file too.)
        let rows = [
            ("{", r#""colect_traces":true"#, "colect_traces"),
            (
                r#""recovery":{"#,
                r#""stall_budget":500"#,
                "recovery.stall_budget",
            ),
            ("{", r#""handicaps":[[1,200]]"#, "handicaps"),
            (
                r#""recovery":{"#,
                r#""compact_after":0"#,
                "recovery.compact_after",
            ),
            (r#""net":{"#, r#""transport":"Poll""#, "net.transport"),
            ("{", r#""balance":{"enabled":false}"#, "balance"),
            (
                r#""recovery":{"#,
                concat!(r#""resume_"#, r#"chunk_bytes":200"#),
                concat!("recovery.resume_", "chunk_bytes"),
            ),
            (r#""rules":[{"#, r#""drop":1"#, "fault.rules[0].drop"),
            (r#""Phold":{"#, r#""fanout":2"#, "model.Phold.fanout"),
        ];
        for (after, key, path) in rows {
            let with = json.replacen(after, &format!("{after}{key},"), 1);
            assert_ne!(with, json, "the job has no {after}");
            let err = parse_job(&with).unwrap_err();
            assert!(err.contains(&format!("`{path}`")), "{path}: {err}");
        }
    }

    #[test]
    fn job_files_refuse_the_retired_compaction_knob() {
        let job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        let json = serde_json::to_string(&job).unwrap();
        assert!(parse_job(&json).is_ok());
        // Checkpoints are per-LP images with no history to compact: the
        // knob is refused at any value, the 0 older builds wrote included.
        for v in [0, 3] {
            let with = json.replacen(
                r#""recovery":{"#,
                &format!(r#""recovery":{{"compact_after":{v},"#),
                1,
            );
            assert_ne!(with, json, "the job carries a recovery section");
            let err = parse_job(&with).unwrap_err();
            assert!(
                err.contains("`recovery.compact_after` is not a job key"),
                "{v}: {err}"
            );
        }
    }

    /// A job as a build with two cluster loops wrote it: `balance` and/or
    /// `elastic` sections where `cluster` is now, or next to it when
    /// `keep_cluster`.
    fn pre_merge_job(balance: bool, elastic: bool, keep_cluster: bool) -> String {
        let job = ClusterJob::new(ModelSpec::Phold(PholdConfig::new(50, 1)), None);
        let json = serde_json::to_string(&job).unwrap();
        let at = json
            .find(r#""cluster":{"#)
            .expect("the job carries a cluster section");
        let end = at + json[at..].find('}').unwrap() + 1;
        let (at, end) = if keep_cluster { (1, 1) } else { (at, end) };
        let mut sections = Vec::new();
        if balance {
            sections.push(r#""balance":{"enabled":true,"dead_zone":0.4,"patience":3,"warmup_rounds":2,"max_moves":1,"min_lps":1,"max_migrations":3}"#);
        }
        if elastic {
            sections.push(r#""elastic":{"enabled":true,"min_workers":2,"max_workers":3,"scale_out_pressure":0.6,"scale_in_pressure":0.45,"patience":1,"warmup_rounds":1,"max_scales":2,"spawn":false}"#);
        }
        let sep = if keep_cluster { "," } else { "" };
        format!("{}{}{sep}{}", &json[..at], sections.join(","), &json[end..])
    }

    #[test]
    fn pre_merge_jobs_refuse_what_the_one_loop_cannot_do() {
        // One cluster loop reads one `cluster` section: a pre-merge
        // section is refused by its name, alone, paired, or next to a
        // `cluster` section.
        for (balance, elastic, path) in [
            (true, false, "balance"),
            (false, true, "elastic"),
            (true, true, "balance"),
        ] {
            for keep_cluster in [false, true] {
                let old = pre_merge_job(balance, elastic, keep_cluster);
                let err = parse_job(&old).unwrap_err();
                assert!(err.contains(&format!("`{path}`")), "{path}: {err}");
            }
        }
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
