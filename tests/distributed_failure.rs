//! Failure behavior of the distributed executive: losing a worker
//! mid-run must produce a prompt, descriptive error on the coordinator
//! — never a hang.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use warp_net::FaultPlan;
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::exec::distributed::DistError;
use warped_online::models::SmmpConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

#[test]
fn killed_worker_is_a_clean_error_not_a_hang() {
    // Every worker dies abruptly (no Bye, no report) right after joining
    // the mesh, in every session — what `kill -9` looks like to the
    // coordinator's failure detector.
    let started = Instant::now();
    let result = run_distributed_job(
        &ClusterJob {
            collect_traces: true,
            fault: Some(FaultPlan::new().crash_worker(1).crash_worker(2)),
            ..ClusterJob::new(ModelSpec::Smmp(SmmpConfig::small(40, 3)), None)
        },
        2,
        worker_bin(),
        Duration::from_secs(60),
    );
    match result {
        Err(DistError::Worker { proc_id, detail }) => {
            assert!(proc_id == 1 || proc_id == 2, "bad proc id in {detail:?}");
        }
        other => panic!("expected a worker-failure error, got {other:?}"),
    }
    // "Prompt" means the failure detector fired, not the watchdog.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "worker loss took {:?} to surface",
        started.elapsed()
    );
}
