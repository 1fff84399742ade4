//! Chaos coverage beyond the targeted scenarios: an asymmetric
//! partition (quick, always on) and a seeded soak over every link fault
//! kind (long; run by the nightly CI job via `--ignored`).
//!
//! Both are digest-checked against the sequential golden model — chaos
//! may cost recoveries, never history.

use std::path::PathBuf;
use std::time::Duration;
use warp_exec::distributed::{NetTuning, RecoveryPolicy};
use warp_exec::run_sequential;
use warp_net::{FaultKind, FaultPlan, FaultRule, FaultScope};
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::control::ClusterPolicy;
use warped_online::models::PholdConfig;

fn worker_bin() -> PathBuf {
    std::env::var_os("WARP_WORKER_BIN")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_BIN_EXE_warp-worker")))
}

/// The chaos clusters are CPU-hungry multi-process affairs; on a small
/// CI box two at once turn timing-sensitive assertions into coin flips.
/// One cluster at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn phold_job(ttl: u32, max_recoveries: u32, stall_budget_ms: u64) -> ClusterJob {
    let cfg = PholdConfig {
        n_objects: 16,
        n_lps: 4,
        population_per_object: 2,
        ttl,
        ..PholdConfig::new(ttl, 5)
    };
    ClusterJob {
        collect_traces: true,
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries,
            ckpt_min_interval_ms: 0,
            stall_budget_ms,
            ..RecoveryPolicy::default()
        },
        ..ClusterJob::new(ModelSpec::Phold(cfg), None)
    }
}

fn assert_matches_sequential(job: &ClusterJob, dist: &warp_exec::RunReport) {
    let seq = run_sequential(&job.spec());
    assert_eq!(
        dist.committed_events, seq.committed_events,
        "committed event counts diverged under chaos"
    );
    let seq_digests = seq.trace_digests();
    assert!(
        !seq_digests.is_empty(),
        "test must actually compare digests"
    );
    assert_eq!(
        dist.trace_digests(),
        seq_digests,
        "chaos changed the committed history vs. the sequential golden model"
    );
}

#[test]
fn asymmetric_partition_is_caught_by_the_stall_watchdog() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Worker 2's data toward worker 1 silently vanishes from frame 100
    // on (session 0 only), while the reverse direction and this
    // direction's heartbeats keep flowing: nothing arrives out of
    // sequence and per-link liveness stays green. Only the GVT plane
    // betrays the fault — the Mattern counts never reconcile — so the
    // stall watchdog must declare the livelock and route it through
    // recovery.
    let job = ClusterJob {
        fault: Some(FaultPlan::new().blackhole(2, 1, 100, 0)),
        ..phold_job(150, 3, 800)
    };
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(120))
        .expect("asym-partitioned run failed");
    assert!(
        dist.recoveries >= 1,
        "the asymmetric partition never tripped the watchdog"
    );
    assert_matches_sequential(&job, &dist);
}

#[test]
fn newcomer_crash_during_scale_out_falls_back_without_divergence() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The worst moment for a worker to die: a freshly admitted newcomer
    // crashes in its very first session, while it is the only process
    // holding its block of LPs live. A `CrashWorker` entry for proc 3 —
    // a proc only the scale-out creates — makes the admitted newcomer
    // exit(9) right after joining the mesh, before it is seeded. The
    // coordinator must evict the probationer, fall back to the pre-scale
    // membership — the checkpoint chains are lossless under rekeying, so
    // nothing is lost — record a "fallback" ScaleRecord, and still
    // commit the sequential history.
    let job = ClusterJob {
        cluster: ClusterPolicy {
            high: 0.5,
            low: 0.15,
            patience: 2,
            warmup_rounds: 1,
            max_migrations: 0,
            workers: Some((2, 3)),
            max_scales: 1,
            spawn: true,
        },
        fault: Some(FaultPlan::new().slow(1, 800, 0).crash_worker(3)),
        ..phold_job(220, 2, 0)
    };
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(120))
        .expect("run with a crashing newcomer failed");

    assert!(
        dist.scales.iter().any(|s| s.direction == "out"),
        "the skew never triggered a scale-out; the newcomer crash was never exercised: {}",
        dist.adaptation_summary()
    );
    let fb = dist
        .scales
        .iter()
        .find(|s| s.direction == "fallback")
        .expect("the newcomer crash did not produce a fallback record");
    assert_eq!(fb.from_workers, 3);
    assert_eq!(fb.to_workers, 2);
    assert!(fb.pressure < 0.0, "fallbacks carry a sentinel pressure");
    assert!(
        dist.recoveries >= 1,
        "the eviction must be charged as a recovery"
    );
    assert_matches_sequential(&job, &dist);
}

/// The nightly soak: a long PHOLD run under a seeded schedule of every
/// link fault kind — one `Partition`, one `Crash` and one `Blackhole`
/// rule, shuffled over sessions 0–2, each on a drawn direction between
/// the two workers and at a drawn data frame. Every rule is pinned to its
/// session (a fault that fired again in each recovered epoch would
/// re-kill it forever). The draws come from a seed fixed here, so a
/// failure reproduces locally with the exact same schedule. Run with
/// `cargo test --test chaos_soak -- --ignored`.
#[test]
#[ignore = "long soak; exercised by the nightly chaos-soak CI job"]
fn seeded_random_chaos_soak_commits_the_sequential_history() {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // SplitMix64 over a fixed seed.
    let mut state = 0xC0FF_EE00_u64;
    let mut draw = |below: u64| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % below
    };
    let mut kinds: Vec<fn(u64) -> FaultKind> = vec![
        |after| FaultKind::Partition { after },
        |after| FaultKind::Crash { after },
        |after| FaultKind::Blackhole { after },
    ];
    let mut fault = FaultPlan::new();
    for session in 0..3 {
        let kind = kinds.remove(draw(kinds.len() as u64) as usize);
        let from = 1 + draw(2) as u32;
        fault.rules.push(FaultRule {
            from,
            to: 3 - from,
            session: Some(session),
            scope: FaultScope::Data,
            kind: kind(50 + draw(350)),
        });
    }
    eprintln!("chaos schedule: {:?}", fault.rules);
    let job = ClusterJob {
        net: NetTuning {
            heartbeat_ms: 100,
            liveness_ms: 1000,
            ..NetTuning::default()
        },
        fault: Some(fault),
        // The stall watchdog catches the black hole; its budget is above
        // the liveness timeout, so a partition is caught as a dead link.
        ..phold_job(2000, 5, 2000)
    };
    let dist = run_distributed_job(&job, 2, worker_bin(), Duration::from_secs(480))
        .expect("seeded chaos soak failed");
    assert!(
        dist.recoveries >= 3,
        "the scheduled faults never cost their sessions — chaos too gentle to mean anything"
    );
    assert!(
        dist.recoveries <= 5,
        "recovery churn exceeded the budget the plan was tuned for"
    );
    assert_matches_sequential(&job, &dist);
}
