//! The data plane end-to-end: DyMA aggregation on the worker LPs must
//! be *behaviorally invisible* — every run here, even through a crash
//! recovery or a mid-run LP migration with aggregation windows open,
//! must commit a trace byte-identical to the sequential golden model.
//!
//! Kept separate from `distributed_digest.rs` (the unaggregated
//! baseline) so an aggregation regression points here directly.

use std::path::PathBuf;
use std::time::Duration;
use warp_balance::BalancePolicy;
use warp_exec::distributed::RecoveryPolicy;
use warp_exec::run_sequential;
use warp_net::{AggregationConfig, FaultPlan};
use warp_telemetry::Param;
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::models::PholdConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// PHOLD with 4 LPs over 2 workers: enough cross-process traffic that
/// aggregation actually has pairs to coalesce.
fn phold_job() -> ClusterJob {
    let cfg = PholdConfig {
        n_objects: 16,
        n_lps: 4,
        population_per_object: 2,
        ttl: 150,
        ..PholdConfig::new(150, 5)
    };
    ClusterJob {
        collect_traces: true,
        ..ClusterJob::new(ModelSpec::Phold(cfg), None)
    }
}

/// SAAW from a 2 ms window — wide enough that rapid sends to the same
/// LP coalesce — clamped to [50 µs, 20 ms] of wall time as
/// `warp-cluster --agg-window` clamps it.
fn saaw() -> AggregationConfig {
    AggregationConfig::Saaw {
        initial_window: 2e-3,
        min_window: 50e-6,
        max_window: 20e-3,
    }
}

fn run_job(job: &ClusterJob, n_workers: u32) -> warp_exec::RunReport {
    run_distributed_job(job, n_workers, worker_bin(), Duration::from_secs(120))
        .expect("distributed run failed")
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
        "the data plane changed the committed history vs. the sequential golden model"
    );
}

/// Aggregation must have been live and adapting: fewer physical
/// messages than events offered, and the SAAW trajectory on the
/// telemetry record.
fn assert_aggregated(dist: &warp_exec::RunReport) {
    assert!(
        dist.comm.events_offered > dist.comm.phys_sent,
        "no coalescing happened ({} events offered, {} physical messages) — \
         the aggregation window never caught two events",
        dist.comm.events_offered,
        dist.comm.phys_sent
    );
    let tel = dist.telemetry.as_ref().expect("telemetry was requested");
    assert!(
        tel.events.iter().any(|e| e.param == Param::Window),
        "no Param::Window events: the adaptive window never moved"
    );
}

#[test]
fn saaw_aggregation_commits_the_sequential_history_and_batches() {
    let job = ClusterJob {
        aggregation: saaw(),
        telemetry: true,
        ..phold_job()
    };
    let dist = run_job(&job, 2);
    assert_matches_sequential(&job, &dist);
    assert_aggregated(&dist);
}

#[test]
fn worker_crash_under_aggregation_recovers_the_sequential_history() {
    // Worker 2 dies abruptly (no Bye, no flush) at its 60th data frame
    // to worker 1 — with an aggregation window open. Recovery must
    // restore from the checkpoint chain and finish byte-identical. The
    // trigger is deliberately low: each data frame is a whole aggregate
    // when aggregation is on, and a loaded machine packs more events
    // per window, so a high trigger can starve and never fire.
    let job = ClusterJob {
        aggregation: saaw(),
        telemetry: true,
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 0,
            stall_budget_ms: 0,
            ..RecoveryPolicy::default()
        },
        fault: Some(FaultPlan::new().crash(2, 1, 60, 0)),
        ..phold_job()
    };
    let dist = run_job(&job, 2);
    assert_matches_sequential(&job, &dist);
    assert!(
        dist.recoveries >= 1,
        "the crash never fired — no recovery was exercised"
    );
    assert_aggregated(&dist);
}

#[test]
fn slowed_worker_under_aggregation_migrates_and_matches_sequential() {
    // The balance scenario from distributed_balance.rs, rerun with
    // aggregation on: a rebalance (session teardown, re-establishment,
    // LP migration) must leave the history intact.
    let cfg = PholdConfig {
        n_objects: 18,
        n_lps: 6,
        population_per_object: 2,
        ttl: 220,
        ..PholdConfig::new(220, 11)
    };
    let job = ClusterJob {
        collect_traces: true,
        aggregation: saaw(),
        telemetry: true,
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 0,
            stall_budget_ms: 0,
            ..RecoveryPolicy::default()
        },
        balance: BalancePolicy {
            enabled: true,
            dead_zone: 0.4,
            patience: 3,
            warmup_rounds: 2,
            max_moves: 1,
            min_lps: 1,
            max_migrations: 3,
        },
        handicaps: vec![(3, 400)],
        ..ClusterJob::new(ModelSpec::Phold(cfg), None)
    };
    let dist = run_job(&job, 3);
    assert_matches_sequential(&job, &dist);
    assert!(
        !dist.migrations.is_empty(),
        "the slowed worker never shed an LP: {}",
        dist.adaptation_summary()
    );
    assert_aggregated(&dist);
}
