//! The data plane end-to-end: on-the-wire DyMA aggregation must be
//! *behaviorally invisible* — every run here, even through a crash
//! recovery or a mid-run LP migration with aggregation windows open,
//! must commit a trace byte-identical to the sequential golden model.
//!
//! Kept separate from `distributed_digest.rs` (the unaggregated
//! baseline) so an aggregation regression points here directly.

use std::path::PathBuf;
use std::time::Duration;
use warp_balance::BalancePolicy;
use warp_exec::distributed::{NetTuning, RecoveryPolicy};
use warp_exec::run_sequential;
use warp_net::FaultPlan;
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

/// On-the-wire DyMA on, SAAW-adapted, with a window wide enough that
/// rapid same-link sends coalesce.
fn agg_net() -> NetTuning {
    NetTuning {
        agg_window_us: 2_000,
        agg_adapt: true,
        ..NetTuning::default()
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

/// The SAAW trajectory must be on the telemetry record: proof that
/// aggregation was live (and adapting) in the session that finished.
fn assert_agg_window_moved(dist: &warp_exec::RunReport) {
    let tel = dist.telemetry.as_ref().expect("telemetry was requested");
    assert!(
        tel.events.iter().any(|e| e.param == Param::AggWindow),
        "no Param::AggWindow events: the adaptive window never moved ({:?})",
        dist.wire_agg
    );
}

#[test]
fn saaw_aggregation_commits_the_sequential_history_and_batches() {
    let job = ClusterJob {
        net: agg_net(),
        telemetry: true,
        ..phold_job()
    };
    let dist = run_job(&job, 2);
    assert_matches_sequential(&job, &dist);

    // The gauges must show aggregation actually happened: frames were
    // offered, batches formed, physical frames were saved.
    assert!(
        !dist.wire_agg.is_empty(),
        "aggregation on must surface per-link gauges"
    );
    let offered: u64 = dist.wire_agg.iter().map(|l| l.frames_offered).sum();
    let saved: u64 = dist.wire_agg.iter().map(|l| l.frames_saved).sum();
    let batches: u64 = dist.wire_agg.iter().map(|l| l.batches).sum();
    assert!(offered > 0, "no frames ever passed the aggregation layer");
    assert!(
        saved > 0 && batches > 0,
        "no coalescing happened (offered {offered}, saved {saved}, batches {batches}) — \
         the aggregation window never caught two frames"
    );

    assert_agg_window_moved(&dist);
}

#[test]
fn worker_crash_under_aggregation_recovers_the_sequential_history() {
    // Worker 2 dies abruptly (no Bye, no flush) at its 60th data frame
    // to worker 1 — with an aggregation window open. Recovery must
    // restore from the checkpoint chain and finish byte-identical. The
    // trigger is deliberately low: each sequenced unit is a whole batch
    // when aggregation is on, and a loaded machine packs more events
    // per window, so a high trigger can starve and never fire.
    let job = ClusterJob {
        net: agg_net(),
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
    assert_agg_window_moved(&dist);
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
        net: agg_net(),
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
            // One move only: `AggWindow` events are harvested from the
            // session that finishes, and a second, late migration could
            // leave a final session with no cross-worker traffic.
            max_migrations: 1,
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
    assert_agg_window_moved(&dist);
}
