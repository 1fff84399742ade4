//! The SERVE workload end-to-end: open-arrival service traffic across
//! real worker processes.
//!
//! Two layers of checks. First, the digest matrix: sequential vs
//! threaded vs distributed (plain, under SAAW aggregation, and
//! through a worker crash mid-run) must all commit the
//! byte-identical history — the golden-model contract every other
//! workload honors. Second, the reason SERVE exists: a diurnal burst
//! wave with hot-tenant skew must make the cluster loop migrate an LP
//! and scale the cluster out and back in — from *modeled* load alone,
//! with no slowed worker anywhere — while the committed trace still
//! matches the sequential run exactly.

use std::path::PathBuf;
use std::time::Duration;
use warp_exec::distributed::RecoveryPolicy;
use warp_exec::{run_sequential, run_threaded};
use warp_net::{AggregationConfig, FaultPlan};
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::control::ClusterPolicy;
use warped_online::models::ServeConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// The controller signals are relative-speed observations; concurrent
/// clusters on a small CI box flatten them into scheduling noise. One
/// cluster at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serve_job() -> ClusterJob {
    ClusterJob {
        collect_traces: true,
        ..ClusterJob::new(ModelSpec::Serve(ServeConfig::small(42)), None)
    }
}

fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        enabled: true,
        max_recoveries: 3,
        ckpt_min_interval_ms: 0,
        stall_budget_ms: 0,
        ..RecoveryPolicy::default()
    }
}

fn run_job(job: &ClusterJob, n_workers: u32, secs: u64) -> warp_exec::RunReport {
    run_distributed_job(job, n_workers, worker_bin(), Duration::from_secs(secs))
        .expect("distributed serve run failed")
}

fn assert_matches_sequential(job: &ClusterJob, dist: &warp_exec::RunReport) {
    let seq = run_sequential(&job.spec());
    assert_eq!(
        dist.committed_events, seq.committed_events,
        "committed event counts diverged"
    );
    let seq_digests = seq.trace_digests();
    assert!(
        !seq_digests.is_empty(),
        "test must actually compare digests"
    );
    assert_eq!(
        dist.trace_digests(),
        seq_digests,
        "serve committed a different history than the sequential golden model"
    );
}

#[test]
fn serve_threaded_matches_sequential() {
    let spec = ServeConfig::small(42)
        .spec()
        .with_gvt_period(None)
        .with_traces();
    let seq = run_sequential(&spec);
    let thr = run_threaded(&spec);
    assert_eq!(seq.committed_events, thr.committed_events);
    assert_eq!(seq.trace_digests(), thr.trace_digests());
}

#[test]
fn serve_two_workers_commit_the_sequential_history() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let job = serve_job();
    let dist = run_job(&job, 2, 120);
    assert_matches_sequential(&job, &dist);
}

#[test]
fn serve_with_saaw_aggregation_commits_the_sequential_history() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let job = ClusterJob {
        aggregation: AggregationConfig::Saaw {
            initial_window: 2e-3,
            min_window: 50e-6,
            max_window: 20e-3,
        },
        ..serve_job()
    };
    let dist = run_job(&job, 2, 120);
    assert_matches_sequential(&job, &dist);
    assert!(
        dist.comm.events_offered > dist.comm.phys_sent,
        "an open-arrival pipeline should give SAAW pairs to coalesce"
    );
}

#[test]
fn serve_worker_crash_recovers_and_commits_the_sequential_history() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Worker 2 dies abruptly at its 60th data frame to worker 1;
    // recovery must restore the pipeline — queues, KV caches, source
    // cursors and all — from the checkpoint chain and finish
    // byte-identical.
    let job = ClusterJob {
        recovery: recovery(),
        fault: Some(FaultPlan::new().crash(2, 1, 60, 0)),
        ..serve_job()
    };
    let dist = run_job(&job, 2, 120);
    assert_matches_sequential(&job, &dist);
    assert!(
        dist.recoveries >= 1,
        "the crash never fired — no recovery was exercised"
    );
}

#[test]
fn diurnal_wave_drives_migration_and_scaling_without_handicaps() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The tentpole scenario: no slowed worker anywhere. Before the wave the
    // load is near-uniform; at 150ms of virtual time a 4× burst with
    // hot-tenant skew concentrates traffic on the low-numbered
    // stations — which the contiguous assignment puts on worker 1. The
    // cluster loop must notice worker 1's optimism front lagging and
    // migrate an LP off it, then admit a third worker while the wave
    // lasts and drain it after the wave subsides. The committed history
    // must match the sequential model before, during and after all of it.
    let job = ClusterJob {
        collect_traces: true,
        recovery: recovery(),
        cluster: ClusterPolicy {
            high: 0.5,
            low: 0.45,
            patience: 1,
            warmup_rounds: 1,
            max_migrations: 1,
            workers: Some((2, 3)),
            max_scales: 3,
            spawn: true,
        },
        ..ClusterJob::new(ModelSpec::Serve(ServeConfig::wave(42)), None)
    };
    let dist = run_job(&job, 2, 240);
    assert_matches_sequential(&job, &dist);
    assert!(
        !dist.migrations.is_empty(),
        "the burst wave never triggered a balance migration: {}",
        dist.adaptation_summary()
    );
    assert!(
        dist.scales.iter().any(|s| s.direction == "out"),
        "the burst wave never triggered a scale-out: {}",
        dist.adaptation_summary()
    );
    assert!(
        dist.scales.iter().any(|s| s.direction == "in"),
        "the cluster never shrank after the wave subsided: {}",
        dist.adaptation_summary()
    );
}
