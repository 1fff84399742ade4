//! Chaos tests for the distributed executive's checkpoint/recovery
//! machinery: under a deterministic fault plan — a worker crash, a link
//! partition — the run must still finish and commit
//! *exactly* the history the sequential golden model commits, with the
//! recovery count recorded in the merged report.
//!
//! Kept separate from `distributed_digest.rs` (fault-free baseline).

use std::path::PathBuf;
use std::time::Duration;
use warp_exec::distributed::{NetTuning, RecoveryPolicy};
use warp_exec::run_sequential;
use warp_net::FaultPlan;
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::models::PholdConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// A 16 KiB frame cap: every frame of the run still fits (a 4 KiB cap
/// refused frames of 5.6 KiB), and the resume streams in chunks of 1/64
/// of it, 256 bytes.
fn small_frames() -> NetTuning {
    NetTuning {
        max_frame_bytes: 16384,
        ..NetTuning::default()
    }
}

/// PHOLD with 4 LPs over 2 workers and plenty of cross-process traffic:
/// the model every chaos scenario below runs.
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
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 0,
            stall_budget_ms: 0,
            ..RecoveryPolicy::default()
        },
        ..ClusterJob::new(ModelSpec::Phold(cfg), None)
    }
}

fn run_with_faults(job: ClusterJob) -> warp_exec::RunReport {
    let spec = job.spec();
    let seq = run_sequential(&spec);
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(120))
        .expect("distributed run with faults failed");

    assert_eq!(
        dist.committed_events, seq.committed_events,
        "committed event counts diverged under faults"
    );
    let seq_digests = seq.trace_digests();
    assert!(
        !seq_digests.is_empty(),
        "test must actually compare digests"
    );
    assert_eq!(
        dist.trace_digests(),
        seq_digests,
        "faults changed the committed history vs. the sequential golden model"
    );
    dist
}

#[test]
fn worker_crash_mid_run_recovers_and_commits_the_sequential_history() {
    // Worker 2 aborts (no Bye, no flush) the moment it sends its 200th
    // data frame to worker 1, in session 0 only. The coordinator must
    // respawn it, restore both workers from the checkpoint chain, and
    // finish with a byte-identical committed trace.
    let job = ClusterJob {
        fault: Some(FaultPlan::new().crash(2, 1, 200, 0)),
        ..phold_job()
    };
    let report = run_with_faults(job);
    assert!(
        report.recoveries >= 1,
        "the crash never fired — no recovery was exercised"
    );
}

#[test]
fn link_partition_recovers_with_every_process_surviving() {
    // The worker-2 → worker-1 link goes completely silent (heartbeats
    // included) after 150 data frames; worker 1's liveness timeout must
    // declare it dead and the abort cascade must reach the coordinator,
    // which re-establishes the mesh with both original processes as
    // survivors.
    let job = ClusterJob {
        net: NetTuning {
            heartbeat_ms: 100,
            liveness_ms: 1000,
            ..NetTuning::default()
        },
        fault: Some(FaultPlan::new().partition(2, 1, 150, 0)),
        ..phold_job()
    };
    let report = run_with_faults(job);
    assert!(
        report.recoveries >= 1,
        "the partition never fired — no recovery was exercised"
    );
}

#[test]
fn crash_recovery_streams_the_resume_in_chunks_and_rolls_survivors_back() {
    // Same crash as above, but under a 16 KiB frame cap, which makes the
    // resume chunks 256 bytes: the images cannot travel as one chunk, and
    // the resume must arrive as an ordered ResumeChunk stream. Worker 1
    // survives the session and the respawned worker 2 does not, and both load
    // their LPs' images the same way — and the committed history must
    // still match the golden model. Full speed, the 200th frame beats
    // the first 5 ms GVT round and no image exists when the crash
    // lands; the slowdown stretches the pre-crash window across many
    // checkpoint commits.
    let job = ClusterJob {
        net: small_frames(),
        fault: Some(
            FaultPlan::new()
                .crash(2, 1, 200, 0)
                .slow(1, 200, 0)
                .slow(2, 200, 0),
        ),
        ..phold_job()
    };
    let report = run_with_faults(job);
    assert!(
        report.recoveries >= 1,
        "the crash never fired — no recovery was exercised"
    );
    let r = &report.resume;
    assert!(
        r.resume_chunks > 2,
        "resume was not actually chunked: {r:?}"
    );
    assert!(
        r.resume_bytes > 256,
        "images smaller than one chunk — nothing streamed: {r:?}"
    );
    assert!(
        r.images_loaded >= 4,
        "the survivor and the respawned worker load all four LPs' images: {r:?}"
    );
    assert!(r.ckpt_bytes > 0, "no image reached the coordinator: {r:?}");
}

/// `job` with fossil collection on (5 ms GVT rounds): every worker
/// collects past each checkpoint horizon right after imaging it, so a
/// resume has nothing but the images to go on. The digests survive
/// fossil collection.
fn with_fossils(job: ClusterJob) -> ClusterJob {
    ClusterJob {
        gvt_period: Some(0.005),
        ..job
    }
}

#[test]
fn fossil_on_crash_recovery_streams_the_resume_in_chunks_and_rolls_survivors_back() {
    let job = with_fossils(ClusterJob {
        net: small_frames(),
        fault: Some(
            FaultPlan::new()
                .crash(2, 1, 200, 0)
                .slow(1, 200, 0)
                .slow(2, 200, 0),
        ),
        ..phold_job()
    });
    let report = run_with_faults(job);
    assert!(report.recoveries >= 1, "the crash never fired");
    assert!(report.kernel.fossils_collected > 0, "nothing was collected");
    let r = &report.resume;
    assert!(r.resume_chunks > 2, "resume was not chunked: {r:?}");
    assert!(
        r.images_loaded >= 4,
        "the survivor and the respawned worker load all four LPs' images: {r:?}"
    );
}

#[test]
fn fossil_on_link_partition_recovers_with_every_process_surviving() {
    let job = with_fossils(ClusterJob {
        net: NetTuning {
            heartbeat_ms: 100,
            liveness_ms: 1000,
            ..NetTuning::default()
        },
        fault: Some(
            FaultPlan::new()
                .partition(2, 1, 150, 0)
                .slow(1, 100, 0)
                .slow(2, 100, 0),
        ),
        ..phold_job()
    });
    let report = run_with_faults(job);
    assert!(report.recoveries >= 1, "the partition never fired");
    assert!(report.kernel.fossils_collected > 0, "nothing was collected");
    assert!(
        report.resume.images_loaded >= 4,
        "both workers survive, and every LP resumes from its image: {:?}",
        report.resume
    );
}

#[test]
fn checkpoint_store_replaces_images_and_reloads_cleanly() {
    // With a store directory configured, every committed checkpoint's
    // images must replace the segment file's, and recovery must still
    // commit the sequential history (the resume is served from the
    // images). Afterwards the segment must load back CRC-clean with one
    // image per LP, of the last horizon: the file holds state, not
    // history, and does not grow with the run.
    let dir = std::env::temp_dir().join(format!(
        "warp-ckpt-store-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let job = ClusterJob {
        recovery: RecoveryPolicy {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..phold_job().recovery
        },
        fault: Some(FaultPlan::new().crash(2, 1, 200, 0)),
        ..phold_job()
    };
    let n_lps = job.n_lps() as usize;
    let report = run_with_faults(job);
    assert!(
        report.recoveries >= 1,
        "the crash never fired — no recovery was exercised"
    );
    assert!(
        report.resume.store_spilled_bytes > 0,
        "no checkpoint bytes reached the store: {:?}",
        report.resume
    );
    let path = warp_exec::checkpoint_segment_path(&dir);
    let (horizon, images) = warp_exec::load_checkpoint_segment(&path)
        .unwrap_or_else(|e| panic!("segment unreadable: {e}"));
    assert!(horizon.ticks() > 0, "no checkpoint reached the segment");
    assert_eq!(
        images.len(),
        n_lps,
        "one image per LP, replaced, not appended"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator that dies mid-run must not leave worker processes
/// behind: each worker notices on its own (mesh slam or its control
/// socket closing) and exits within the liveness bound.
#[cfg(target_os = "linux")]
#[test]
fn workers_exit_on_their_own_when_the_coordinator_dies() {
    use std::io::Write;
    use std::process::Command;
    use std::time::Instant;

    let job_path =
        std::env::temp_dir().join(format!("warp-orphan-job-{}.json", std::process::id()));
    let coordinator = |fault: FaultPlan| {
        let job = ClusterJob {
            net: NetTuning {
                heartbeat_ms: 100,
                liveness_ms: 1000,
                ..NetTuning::default()
            },
            fault: Some(fault),
            ..phold_job()
        };
        let mut f = std::fs::File::create(&job_path).expect("create job file");
        f.write_all(serde_json::to_string(&job).unwrap().as_bytes())
            .expect("write job file");
        drop(f);
        Command::new(env!("CARGO_BIN_EXE_warp-cluster"))
            .arg(&job_path)
            .arg("--workers")
            .arg("2")
            .env("WARP_WORKER_BIN", worker_bin())
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn warp-cluster")
    };
    // A plan naming a proc the run never holds is a config error before
    // a single worker exists.
    let refused = coordinator(FaultPlan::new().crash_worker(3));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success());
    assert!(stderr.contains("proc 3, outside 1..=2"), "{stderr}");
    assert!(!stderr.contains("WORKER_PID"), "{stderr}");

    // `CrashCoordinator { barriers: 1 }` makes the coordinator abort()
    // right after its first checkpoint barrier — with
    // `ckpt_min_interval_ms` 0, the first GVT progress report starts it
    // — a kill -9 as far as the workers can tell.
    let out = coordinator(FaultPlan::new().crash_coordinator(1));
    let _ = std::fs::remove_file(&job_path);
    assert!(
        !out.status.success(),
        "the coordinator was supposed to crash"
    );

    let stderr = String::from_utf8_lossy(&out.stderr);
    let pids: Vec<u32> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("WORKER_PID "))
        .filter_map(|rest| rest.split_whitespace().nth(1))
        .filter_map(|p| p.parse().ok())
        .collect();
    assert_eq!(pids.len(), 2, "expected 2 worker pids in: {stderr}");

    // liveness (1s) + the bounded recovery wait (10 × liveness) + slack.
    let deadline = Instant::now() + Duration::from_secs(45);
    for pid in pids {
        loop {
            if !std::path::Path::new(&format!("/proc/{pid}")).exists() {
                break;
            }
            // A reused pid or a zombie entry both read as "alive"; the
            // zombie case cannot happen (init reaps orphans promptly).
            assert!(
                Instant::now() < deadline,
                "worker pid {pid} still alive long after its coordinator died"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

/// Peak thread counts of a 2-worker run, read from `/proc/<pid>/task`
/// while it runs. A worker holds its main (session) thread, one thread
/// per LP and the reader of its coordinator link; the coordinator holds
/// its main thread, the admission acceptor and one mesh reader per
/// worker. With control lines on stdio (protocol v10) both sides also
/// ran a control-line reader per worker: this job peaked at 5 threads
/// in each worker and 5 in the coordinator, against 4 and 4 now.
#[cfg(target_os = "linux")]
#[test]
fn each_worker_costs_the_coordinator_one_thread() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    const N_WORKERS: usize = 2;
    let n_local = phold_job().n_lps() as usize / N_WORKERS;
    // Slowed so the run lasts long enough to be sampled throughout.
    let job = ClusterJob {
        fault: Some(FaultPlan::new().slow(1, 200, 0)),
        ..phold_job()
    };
    let job_path =
        std::env::temp_dir().join(format!("warp-threads-job-{}.json", std::process::id()));
    std::fs::File::create(&job_path)
        .and_then(|mut f| f.write_all(serde_json::to_string(&job).unwrap().as_bytes()))
        .expect("write job file");
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_warp-cluster"))
        .arg(&job_path)
        .args(["--workers", &N_WORKERS.to_string()])
        .env("WARP_WORKER_BIN", worker_bin())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn warp-cluster");
    let stderr = coordinator.stderr.take().expect("stderr piped");
    let (pid_tx, pids) = std::sync::mpsc::channel::<u32>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if let Some(pid) = line
                .strip_prefix("WORKER_PID ")
                .and_then(|rest| rest.split_whitespace().nth(1))
                .and_then(|p| p.parse().ok())
            {
                let _ = pid_tx.send(pid);
            }
        }
    });
    let threads =
        |pid: u32| std::fs::read_dir(format!("/proc/{pid}/task")).map_or(0, |tasks| tasks.count());
    let mut coordinator_peak = 0;
    let mut worker_peaks: Vec<(u32, usize)> = Vec::new();
    let status = loop {
        worker_peaks.extend(pids.try_iter().map(|pid| (pid, 0)));
        coordinator_peak = coordinator_peak.max(threads(coordinator.id()));
        for (pid, peak) in &mut worker_peaks {
            *peak = (*peak).max(threads(*pid));
        }
        if let Some(status) = coordinator.try_wait().expect("polling warp-cluster") {
            break status;
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    let _ = std::fs::remove_file(&job_path);
    reader.join().expect("stderr reader panicked");
    assert!(status.success(), "warp-cluster exited with {status}");
    assert_eq!(worker_peaks.len(), N_WORKERS, "{worker_peaks:?}");
    assert_eq!(
        coordinator_peak,
        N_WORKERS + 2,
        "coordinator: main, the acceptor and one mesh reader per worker"
    );
    for (pid, peak) in worker_peaks {
        assert_eq!(
            peak,
            n_local + 2,
            "worker {pid}: the session thread, {n_local} LPs and the coordinator link's reader"
        );
    }
}
