//! Elastic cluster membership: growing and shrinking the worker set
//! mid-run under the closed-loop autoscaler.
//!
//! A handicapped worker models the paper's overloaded machine: the
//! elastic controller must watch the optimism-front pressure leave the
//! dead zone, survive its patience rounds, and admit a fresh worker at
//! a checkpoint barrier — then, once a *transient* handicap lapses and
//! the pressure collapses, drain the extra worker back out. Every run
//! is digest-checked against the sequential golden model: membership
//! changes must never perturb the committed history.

use std::path::PathBuf;
use std::time::Duration;
use warp_elastic::ElasticPolicy;
use warp_exec::distributed::{run_coordinator, RecoveryPolicy};
use warp_exec::run_sequential;
use warp_telemetry::Param;
use warped_online::cluster::{dist_config, run_distributed_job, ClusterJob, ModelSpec};
use warped_online::models::PholdConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// The pressure signal is a *relative speed* observation; running the
/// clusters of several tests concurrently on a small CI box flattens
/// the lead spread into scheduling noise. One cluster at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// PHOLD spread over 6 LPs / 2 workers with enough events that the
/// controller has time to observe, decide, and scale mid-run.
fn phold_job(ttl: u32) -> ClusterJob {
    let cfg = PholdConfig {
        n_objects: 18,
        n_lps: 6,
        population_per_object: 2,
        ttl,
        ..PholdConfig::new(ttl, 11)
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

// Short hysteresis: the three tests in this binary run concurrently,
// and a CPU-starved "fast" worker narrows the lead spread — the
// controller must fire on the rounds it does get.
fn elastic_policy() -> ElasticPolicy {
    ElasticPolicy {
        enabled: true,
        min_workers: 2,
        max_workers: 3,
        scale_out_pressure: 0.5,
        scale_in_pressure: 0.3,
        patience: 2,
        warmup_rounds: 1,
        max_scales: 3,
        spawn: true,
    }
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
        "scaling changed the committed history vs. the sequential golden model"
    );
}

#[test]
fn skewed_cluster_scales_out_and_commits_the_sequential_history() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Worker 1 executes at most one event per 800µs for the whole run;
    // the pressure index must leave the dead zone and admit a third
    // worker — after which the committed trace must still be
    // byte-identical to the sequential run.
    let job = ClusterJob {
        elastic: elastic_policy(),
        handicaps: vec![(1, 800)],
        telemetry: true,
        ..phold_job(220)
    };
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(120))
        .expect("elastic distributed run failed");

    assert_matches_sequential(&job, &dist);
    assert!(
        dist.scales.iter().any(|s| s.direction == "out"),
        "the skewed cluster never scaled out: {}",
        dist.adaptation_summary()
    );
    let out = dist
        .scales
        .iter()
        .find(|s| s.direction == "out")
        .expect("checked above");
    assert_eq!(out.from_workers, 2);
    assert_eq!(out.to_workers, 3);
    assert!(
        !out.moves.is_empty(),
        "a scale-out that moved no LPs onto the newcomer"
    );
    assert!(
        out.moves.iter().all(|m| m.to == 3),
        "scale-out moves must all land on the admitted worker"
    );
    assert!(
        out.pressure >= job.elastic.scale_out_pressure,
        "recorded pressure {} below the firing threshold",
        out.pressure
    );
    // Membership changes must also appear on the control trajectory.
    let telemetry = dist.telemetry.as_ref().expect("telemetry was enabled");
    let cluster_events = telemetry
        .events
        .iter()
        .filter(|e| e.param == Param::ClusterSize)
        .count();
    assert!(
        cluster_events >= dist.scales.len(),
        "scales missing from the telemetry trajectory: {} events for {} records",
        cluster_events,
        dist.scales.len()
    );
}

#[test]
fn transient_skew_scales_out_then_back_in() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The handicap lapses after 5_000 events (~2 wall seconds of skew —
    // worker 1's total share of this job is ~8k events, so the budget
    // *always* depletes, in every build profile). The budget counts
    // executed events, rolled-back ones included; after the scale-out
    // worker 1 keeps one LP of six — 6 × ttl committed events plus
    // its waste — and ttl is sized on the committed part alone, so
    // that the skew ends well before the run does however little the
    // kernel wastes (at ttl 700 and two wasted events in ten it ended
    // at GVT 34 000 of 37 500). The controller should
    // admit a third worker while the skew lasts, then notice the
    // pressure collapse and drain the extra worker back out — the
    // retired process must exit cleanly and the history must still
    // match the sequential model.
    let job = ClusterJob {
        elastic: elastic_policy(),
        handicaps: vec![(1, 400)],
        handicap_events: vec![(1, 5_000)],
        telemetry: true,
        ..phold_job(1200)
    };
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(240))
        .expect("elastic distributed run failed");

    assert_matches_sequential(&job, &dist);
    assert!(
        dist.scales.iter().any(|s| s.direction == "out"),
        "the transient skew never triggered a scale-out: {}",
        dist.adaptation_summary()
    );
    assert!(
        dist.scales.iter().any(|s| s.direction == "in"),
        "the cluster never shrank after the skew lapsed: {}",
        dist.adaptation_summary()
    );
    let inn = dist
        .scales
        .iter()
        .find(|s| s.direction == "in")
        .expect("checked above");
    assert_eq!(inn.from_workers, 3);
    assert_eq!(inn.to_workers, 2);
    assert!(
        inn.moves.iter().all(|m| m.from == 3),
        "scale-in moves must all leave the retired worker"
    );
}

#[test]
fn parked_join_worker_is_adopted_when_pressure_mounts() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // `spawn: false` forbids the coordinator from forking workers on
    // its own: scale-out is only proposed while an external `--join`
    // worker is parked in the admission queue. We dial one in by hand —
    // exactly what `warp-worker --join ADDR` does — and it must be
    // adopted, seeded from the checkpoint store, and carried to the
    // finish (exit 0).
    let admit_file =
        std::env::temp_dir().join(format!("warp-elastic-admit-{}.addr", std::process::id()));
    let _ = std::fs::remove_file(&admit_file);

    let job = ClusterJob {
        elastic: ElasticPolicy {
            spawn: false,
            ..elastic_policy()
        },
        handicaps: vec![(1, 800)],
        ..phold_job(220)
    };
    let mut cfg =
        dist_config(&job, 2, worker_bin(), Duration::from_secs(120)).expect("config build failed");
    cfg.admit_file = Some(admit_file.clone());

    // Park a joiner as soon as the admission point is published.
    let joiner = {
        let admit_file = admit_file.clone();
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let addr = loop {
                if let Ok(text) = std::fs::read_to_string(&admit_file) {
                    let text = text.trim().to_string();
                    if !text.is_empty() {
                        break text;
                    }
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "admission address never published"
                );
                std::thread::sleep(Duration::from_millis(20));
            };
            std::process::Command::new(worker_bin())
                .arg("--join")
                .arg(addr)
                .spawn()
                .expect("spawning the --join worker failed")
        })
    };

    let dist = run_coordinator(&cfg);
    let mut child = joiner.join().expect("joiner thread panicked");
    let _ = std::fs::remove_file(&admit_file);

    let dist = match dist {
        Ok(d) => d,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            panic!("elastic run with a --join worker failed: {e}");
        }
    };
    assert_matches_sequential(&job, &dist);
    assert!(
        dist.scales.iter().any(|s| s.direction == "out"),
        "the parked joiner was never adopted: {}",
        dist.adaptation_summary()
    );

    // The adopted worker must run to the end and exit 0.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("waiting on the joined worker") {
            Some(status) => break status,
            None if std::time::Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("the joined worker never exited after the run finished");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(
        status.success(),
        "the joined worker exited with {status:?} instead of 0"
    );
}
