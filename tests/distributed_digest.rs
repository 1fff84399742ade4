//! End-to-end checks of the distributed executive: a coordinator plus
//! real worker processes over loopback TCP must commit exactly the
//! history the sequential golden model commits — per-object trace
//! digests and committed-event counts identical — and must fail
//! *cleanly* (an error, not a hang) when a worker dies mid-run.
//!
//! The worker binary comes from `CARGO_BIN_EXE_warp-worker`, which
//! cargo builds alongside this test; `WARP_WORKER_BIN` overrides it for
//! running against an installed binary.

use std::path::PathBuf;
use std::time::Duration;
use warp_exec::run_sequential;
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::models::{PholdConfig, QnetConfig, RaidConfig, SmmpConfig};

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

fn assert_distributed_matches_sequential(job: ClusterJob, n_workers: u32) {
    let spec = job.spec();
    let seq = run_sequential(&spec);
    let dist = run_distributed_job(&job, n_workers, worker_bin(), Duration::from_secs(120))
        .expect("distributed run failed");

    assert_eq!(dist.executive, "distributed");
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
        "distributed run committed a different history than the sequential golden model"
    );
    assert_eq!(dist.per_lp.len(), spec.partition.n_lps());
    // Recovery is on by default: a link that closed on a frame out of
    // sequence would be absorbed silently without this.
    assert_eq!(dist.recoveries, 0, "a fault-free run lost a worker");
}

#[test]
fn smmp_two_workers_commit_the_sequential_history() {
    assert_distributed_matches_sequential(
        ClusterJob {
            collect_traces: true,
            ..ClusterJob::new(ModelSpec::Smmp(SmmpConfig::small(60, 11)), None)
        },
        2,
    );
}

#[test]
fn raid_two_workers_commit_the_sequential_history() {
    assert_distributed_matches_sequential(
        ClusterJob {
            collect_traces: true,
            ..ClusterJob::new(ModelSpec::Raid(RaidConfig::small(60, 12)), None)
        },
        2,
    );
}

#[test]
fn qnet_two_workers_commit_the_sequential_history() {
    // The aggressive-temperament closed network: queue-state-dependent
    // departures make premature sends rarely match on re-execution, so
    // this run is rollback- and cancellation-heavy across the wire.
    let cfg = QnetConfig {
        n_stations: 12,
        n_lps: 4,
        n_jobs: 16,
        ..QnetConfig::new(40, 13)
    };
    assert_distributed_matches_sequential(
        ClusterJob {
            collect_traces: true,
            ..ClusterJob::new(ModelSpec::Qnet(cfg), None)
        },
        2,
    );
}

#[test]
fn phold_multiple_lps_per_worker() {
    // 4 LPs over 2 workers: co-resident LPs talk over the worker's
    // lanes, and cross-process frames land on the same lanes from
    // whichever of the two LP threads pumped the peer link, in the same
    // run.
    let cfg = PholdConfig {
        n_objects: 16,
        n_lps: 4,
        population_per_object: 2,
        ttl: 150,
        ..PholdConfig::new(150, 5)
    };
    assert_distributed_matches_sequential(
        ClusterJob {
            collect_traces: true,
            ..ClusterJob::new(ModelSpec::Phold(cfg), None)
        },
        2,
    );
}

#[test]
fn qnet_three_workers_commit_the_sequential_history() {
    // 6 LPs over 3 workers: every LP's inbox has three producers — its
    // co-resident neighbour and the hooks of both peer-worker links,
    // each pumped by either local LP thread.
    let cfg = QnetConfig {
        n_stations: 12,
        n_lps: 6,
        n_jobs: 18,
        ..QnetConfig::new(40, 17)
    };
    assert_distributed_matches_sequential(
        ClusterJob {
            collect_traces: true,
            ..ClusterJob::new(ModelSpec::Qnet(cfg), None)
        },
        3,
    );
}

// Worker-failure behavior lives in tests/distributed_failure.rs: its
// crash hook is a process-global env var, so it needs its own test
// binary to avoid contaminating the digest runs above.
