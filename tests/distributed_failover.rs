//! End-to-end coordinator fail-over: the coordinator is killed between
//! two checkpoint barriers (a `CrashCoordinator` entry in the job's
//! fault plan — an `abort()`, indistinguishable from `kill -9`), its
//! workers park instead of dying, and `warp-cluster --resume STORE_DIR`
//! (or `--supervise`, which runs that restart itself) loads the
//! coordinator's state from the store's one file, re-adopts the parked survivors through the
//! `Reattach` handshake, and finishes the run with a committed history
//! byte-identical to the sequential golden model.
//!
//! Linux-only: the tests observe orphaned worker processes via
//! `/proc/<pid>` and kill one with the external `kill` binary.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use warp_exec::distributed::{NetTuning, RecoveryPolicy};
use warp_exec::{run_sequential, RunReport};
use warp_net::FaultPlan;
use warped_online::cluster::{ClusterJob, ModelSpec};
use warped_online::models::PholdConfig;

/// The reattach windows are wall-clock sensitive; on a loaded test host
/// three subprocess clusters racing each other is asking for flakes.
static SERIAL: Mutex<()> = Mutex::new(());

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// PHOLD over 2 workers, slowed enough that several checkpoint barriers
/// commit before the run can finish, with the durable store and a
/// rejoin grace armed.
fn failover_job(store_dir: &Path, grace_ms: u64) -> ClusterJob {
    let cfg = PholdConfig {
        n_objects: 16,
        n_lps: 4,
        population_per_object: 2,
        ttl: 150,
        ..PholdConfig::new(150, 5)
    };
    ClusterJob {
        collect_traces: true,
        net: NetTuning {
            heartbeat_ms: 100,
            liveness_ms: 1000,
            ..NetTuning::default()
        },
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 0,
            store_dir: Some(store_dir.to_string_lossy().into_owned()),
            rejoin_grace_ms: grace_ms,
            ..RecoveryPolicy::default()
        },
        fault: Some(FaultPlan::new().slow(1, 200, 0).slow(2, 200, 0)),
        ..ClusterJob::new(ModelSpec::Phold(cfg), None)
    }
}

/// `job` whose coordinator aborts right after its `barriers`-th
/// committed checkpoint barrier.
fn crashing(job: &ClusterJob, barriers: u64) -> ClusterJob {
    let fault = job.fault.clone().unwrap_or_default();
    ClusterJob {
        fault: Some(fault.crash_coordinator(barriers)),
        ..job.clone()
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "warp-failover-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `job` under a coordinator that aborts after `barriers` committed
/// barriers; return the worker pids it named. Worker stderr is inherited
/// from the coordinator, so `stderr_log` keeps collecting the *workers'*
/// park/reattach messages long after the coordinator is gone. The
/// stored job carries the crash entry too; a resumed coordinator
/// starts with the stored barrier count already at `barriers` and so
/// never fires it again.
fn crash_coordinator(job: &ClusterJob, dir: &Path, stderr_log: &Path, barriers: u64) -> Vec<u32> {
    let job_path = dir.join("job.json");
    let job = serde_json::to_string(&crashing(job, barriers)).unwrap();
    std::fs::write(&job_path, job).unwrap();
    let log = std::fs::File::create(stderr_log).expect("create stderr log");
    let status = Command::new(env!("CARGO_BIN_EXE_warp-cluster"))
        .arg(&job_path)
        .args(["--workers", "2", "--timeout", "120"])
        .env("WARP_WORKER_BIN", worker_bin())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .status()
        .expect("spawn warp-cluster");
    assert!(
        !status.success(),
        "the coordinator was supposed to crash after barrier {barriers}"
    );
    let stderr = std::fs::read_to_string(stderr_log).expect("read stderr log");
    let pids: Vec<u32> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("WORKER_PID "))
        .filter_map(|rest| rest.split_whitespace().nth(1))
        .filter_map(|p| p.parse().ok())
        .collect();
    assert_eq!(pids.len(), 2, "expected 2 worker pids in: {stderr}");
    pids
}

/// `warp-cluster --resume STORE_DIR`: must exit 0 and print the merged
/// report JSON on stdout.
fn resume_coordinator(store_dir: &Path, stderr_log: &Path) -> RunReport {
    let log = std::fs::File::create(stderr_log).expect("create resume stderr log");
    let out = Command::new(env!("CARGO_BIN_EXE_warp-cluster"))
        .arg("--resume")
        .arg(store_dir)
        .args(["--workers", "2", "--timeout", "120"])
        .env("WARP_WORKER_BIN", worker_bin())
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .expect("spawn warp-cluster --resume");
    let resume_stderr = std::fs::read_to_string(stderr_log).unwrap_or_default();
    assert!(
        out.status.success(),
        "--resume failed ({}): {resume_stderr}",
        out.status
    );
    serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
        .expect("resume printed an undecodable report")
}

fn alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

fn wait_gone(pids: &[u32], deadline: Instant, context: &str) {
    for &pid in pids {
        while alive(pid) {
            assert!(
                Instant::now() < deadline,
                "worker pid {pid} still alive: {context}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

fn assert_matches_sequential(job: &ClusterJob, dist: &RunReport) {
    let seq = run_sequential(&job.spec());
    assert_eq!(
        dist.committed_events, seq.committed_events,
        "committed event counts diverged across the coordinator outage"
    );
    let seq_digests = seq.trace_digests();
    assert!(
        !seq_digests.is_empty(),
        "test must actually compare digests"
    );
    assert_eq!(
        dist.trace_digests(),
        seq_digests,
        "the outage changed the committed history vs. the sequential golden model"
    );
}

#[test]
fn coordinator_killed_between_barriers_resumes_with_parked_survivors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = unique_dir("survivors");
    let store = dir.join("store");
    let job = failover_job(&store, 60_000);

    let crash_log = dir.join("crash.stderr");
    let pids = crash_coordinator(&job, &dir, &crash_log, 2);
    for &pid in &pids {
        assert!(
            alive(pid),
            "worker {pid} died with the coordinator instead of parking"
        );
    }

    // Give both workers time to notice the loss and settle into the
    // parked dial loop; their backoff re-dials land well inside the
    // resumed coordinator's reattach window.
    std::thread::sleep(Duration::from_secs(4));
    let report = resume_coordinator(&store, &dir.join("resume.stderr"));

    assert_matches_sequential(&job, &report);
    assert!(
        report.recoveries >= 1,
        "the outage must be counted as a recovery: {report:?}"
    );
    let stored: Vec<_> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        stored,
        ["images.seg"],
        "the store is one file, across a crash and a resume"
    );
    let r = &report.resume;
    assert_eq!(
        r.reattached, 2,
        "both parked workers should have been re-adopted, not respawned: {r:?}"
    );
    assert_eq!(
        r.images_loaded, 4,
        "the parked survivors resume every LP from its image, once: {r:?}"
    );

    // The re-adopted workers finish with the resumed run and exit on
    // their own; the first incarnation's stderr log shows the park and
    // the reattach actually happened.
    wait_gone(
        &pids,
        Instant::now() + Duration::from_secs(30),
        "after a clean resume",
    );
    let worker_log = std::fs::read_to_string(&crash_log).unwrap();
    assert!(
        worker_log.contains("parked for rejoin"),
        "workers never parked: {worker_log}"
    );
    assert!(
        worker_log.contains("reattached via"),
        "workers never presented Reattach: {worker_log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fossil_on_failover_readopts_both_workers_with_zero_replay() {
    // As above with fossil collection on: each parked worker has
    // collected past the stored horizon, and resumes from the images
    // the coordinator holds of it.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = unique_dir("fossils");
    let job = ClusterJob {
        gvt_period: Some(0.005),
        ..failover_job(&dir, 60_000)
    };

    let pids = crash_coordinator(&job, &dir, &dir.join("crash.stderr"), 2);
    std::thread::sleep(Duration::from_secs(4));
    let report = resume_coordinator(&dir, &dir.join("resume.stderr"));

    assert_matches_sequential(&job, &report);
    assert!(report.kernel.fossils_collected > 0, "nothing was collected");
    let r = &report.resume;
    assert_eq!(r.reattached, 2, "both parked workers re-adopted: {r:?}");
    assert_eq!(
        r.images_loaded, 4,
        "every LP loads its image once, nothing replayed: {r:?}"
    );
    wait_gone(
        &pids,
        Instant::now() + Duration::from_secs(30),
        "after a clean resume",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rebuilds_a_parked_worker_that_also_died() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = unique_dir("mixed");
    let job = failover_job(&dir, 60_000);

    let pids = crash_coordinator(&job, &dir, &dir.join("crash.stderr"), 2);
    // The double fault: one parked worker is killed too, so the resumed
    // coordinator must mix re-adoption with a respawn; both load their
    // LPs' images the same way.
    let killed = Command::new("kill")
        .args(["-9", &pids[1].to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {} failed", pids[1]);

    std::thread::sleep(Duration::from_secs(4));
    let report = resume_coordinator(&dir, &dir.join("resume.stderr"));

    assert_matches_sequential(&job, &report);
    assert!(report.recoveries >= 1, "outage not counted: {report:?}");
    let r = &report.resume;
    assert_eq!(
        r.reattached, 1,
        "exactly the surviving parked worker should reattach: {r:?}"
    );
    assert_eq!(
        r.images_loaded, 4,
        "the survivor and the respawned slot each load their LPs' images: {r:?}"
    );
    wait_gone(
        &pids,
        Instant::now() + Duration::from_secs(30),
        "after a mixed resume",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parked_workers_give_up_when_the_rejoin_grace_expires() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = unique_dir("expiry");
    let job = failover_job(&dir, 3_000);

    let crash_log = dir.join("crash.stderr");
    let pids = crash_coordinator(&job, &dir, &crash_log, 1);
    // No resume ever comes: the grace (3 s) must expire and both parked
    // workers must exit on their own — exit code 4, observable here as
    // the expiry message on their inherited stderr just before exiting.
    wait_gone(
        &pids,
        Instant::now() + Duration::from_secs(45),
        "rejoin grace should have expired",
    );
    let worker_log = std::fs::read_to_string(&crash_log).unwrap();
    assert!(
        worker_log.contains("parked for rejoin"),
        "workers never parked: {worker_log}"
    );
    assert!(
        worker_log.contains("rejoin grace (3000 ms) expired"),
        "workers never reported grace expiry: {worker_log}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_coordinator_resumes_once_and_never_crashes_again() {
    // `--supervise` runs the coordinator as a child and restarts it with
    // `--resume` after an unclean exit. The restarted coordinator reads
    // the job — crash entry included — from the store; the barrier
    // count it inherits is already at the trigger, so it finishes the
    // run instead of dying again.
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = unique_dir("supervise");
    let job = failover_job(&dir, 60_000);
    let job_path = dir.join("input.json");
    let crashing_job = serde_json::to_string(&crashing(&job, 2)).unwrap();
    std::fs::write(&job_path, crashing_job).unwrap();

    let log_path = dir.join("supervise.stderr");
    let log = std::fs::File::create(&log_path).expect("create stderr log");
    let out = Command::new(env!("CARGO_BIN_EXE_warp-cluster"))
        .arg(&job_path)
        .args(["--supervise", "--workers", "2", "--timeout", "120"])
        .env("WARP_WORKER_BIN", worker_bin())
        .stdin(Stdio::null())
        .stderr(log)
        .output()
        .expect("spawn warp-cluster --supervise");
    let stderr = std::fs::read_to_string(&log_path).unwrap_or_default();
    assert!(
        out.status.success(),
        "--supervise failed ({}): {stderr}",
        out.status
    );
    assert_eq!(
        stderr.matches("resuming from").count(),
        1,
        "expected exactly one restart: {stderr}"
    );
    let report: RunReport = serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim())
        .expect("the supervised run printed an undecodable report");
    assert_eq!(
        report.resume.reattached, 2,
        "both parked workers should have been re-adopted: {:?}",
        report.resume
    );
    assert_matches_sequential(&job, &report);
    let _ = std::fs::remove_dir_all(&dir);
}
