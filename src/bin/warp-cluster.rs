//! Coordinator CLI for distributed runs.
//!
//! Reads a `ClusterJob` as JSON (from a file argument, or stdin when no
//! file is given), stages it across worker processes, and prints the
//! merged `RunReport` as JSON on stdout.
//!
//! ```text
//! warp-cluster [JOB.json] [--workers N] [--timeout SECS] [--telemetry OUT.jsonl]
//!              [--balance] [--slow PROC:MICROS[:EVENTS]] [--store-dir DIR]
//!              [--elastic] [--min-workers N] [--max-workers N] [--admit-file PATH]
//!              [--max-frame-bytes N] [--resume-chunk-bytes N]
//!              [--agg-window US] [--agg-fixed]
//!              [--rejoin-grace MS] [--supervise]
//! warp-cluster --resume STORE_DIR [--workers N] [--timeout SECS]
//!              [--telemetry OUT.jsonl] [--admit-file PATH]
//! warp-cluster stats TELEMETRY.jsonl
//! ```
//!
//! `--telemetry` forces telemetry on for the job and writes the merged
//! cluster-wide record (metric samples + control-trajectory events) as
//! JSONL; a one-line adaptation summary goes to stderr. The `stats`
//! subcommand re-reads such a file — validating every line against the
//! telemetry schema — and prints its summary.
//!
//! `--balance` arms the on-line load balancer (LP migration; implies
//! recovery). `--slow PROC:MICROS[:EVENTS]` artificially caps worker
//! `PROC` at one executed event per `MICROS` microseconds — a
//! reproducible "slow machine" for balance experiments. The optional
//! `:EVENTS` suffix makes the slowdown transient: it lapses after that
//! many events, so elastic experiments can watch a skew subside.
//!
//! `--elastic` arms elastic membership (grow/shrink the worker set
//! mid-run; implies recovery). `--min-workers`/`--max-workers` bound
//! the cluster size; `--admit-file PATH` publishes the admission
//! listener's address to `PATH` so external `warp-worker --join`
//! processes can dial in (see `docs/elasticity.md`).
//!
//! `--store-dir DIR` spills committed checkpoint delta chains to
//! per-worker segment files under `DIR` (implies recovery; see
//! `docs/recovery-store.md`). `--max-frame-bytes N` caps every frame
//! the mesh accepts; `--resume-chunk-bytes N` sets the payload size of
//! the streamed resume chunks (both override the job's `net`/`recovery`
//! settings).
//!
//! `--agg-window US` sets the job's DyMA policy (`aggregation`): every
//! LP buffers its cross-LP events per destination LP for a window of
//! `US` microseconds of wall time, SAAW-adapted inside [50 µs, 20 ms]
//! unless `--agg-fixed` pins it (FAW); `0` turns aggregation off (see
//! `docs/data-plane.md`).
//!
//! `--rejoin-grace MS` arms coordinator fail-over (implies recovery;
//! needs `--store-dir`): the coordinator journals its control-plane
//! state at every checkpoint barrier, and workers that lose it *park*
//! for `MS` milliseconds instead of exiting, dialing the re-admission
//! point until a restarted coordinator adopts them. `--resume
//! STORE_DIR` is that restart: it replays the journal under
//! `STORE_DIR` (the job itself is journaled — no JOB.json needed),
//! re-adopts parked workers via the `Reattach` handshake, respawns the
//! rest, and continues the run. `--supervise` automates the loop: the
//! coordinator runs as a child process, and every unclean exit is
//! restarted with `--resume` until the job's recovery budget
//! (`recovery.max_recoveries`) is spent. See
//! `docs/coordinator-failover.md`.
//!
//! The worker binary is taken from `WARP_WORKER_BIN`, falling back to a
//! `warp-worker` sibling of this executable.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Duration;
use warp_exec::distributed::{resume_coordinator, run_coordinator};
use warp_net::AggregationConfig;
use warp_telemetry::TelemetryReport;
use warped_online::cluster::{dist_config, resume_job, ClusterJob};

/// SAAW clamps behind `--agg-window`, in wall seconds.
/// `AggregationConfig::saaw`'s ×100 upper clamp suits modeled time; on
/// the real executives a window that adapts up to hundreds of
/// milliseconds of host time stalls every receiver.
const AGG_MIN_WINDOW: f64 = 50e-6;
const AGG_MAX_WINDOW: f64 = 20e-3;

fn usage() -> ! {
    eprintln!(
        "usage: warp-cluster [JOB.json] [--workers N] [--timeout SECS] [--telemetry OUT.jsonl]\n\
         \x20                [--balance] [--slow PROC:MICROS[:EVENTS]] [--store-dir DIR]\n\
         \x20                [--elastic] [--min-workers N] [--max-workers N] [--admit-file PATH]\n\
         \x20                [--max-frame-bytes N] [--resume-chunk-bytes N]\n\
         \x20                [--agg-window US] [--agg-fixed]\n\
         \x20                [--rejoin-grace MS] [--supervise]\n\
         \x20      warp-cluster --resume STORE_DIR [--workers N] [--timeout SECS]\n\
         \x20                [--telemetry OUT.jsonl] [--admit-file PATH]\n\
         \x20      warp-cluster stats TELEMETRY.jsonl"
    );
    std::process::exit(2);
}

/// `warp-cluster stats FILE`: parse (and thereby schema-check) a
/// telemetry dump, print what it contains.
fn run_stats(path: &PathBuf) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let report =
        TelemetryReport::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.summary_line());
    Ok(())
}

fn worker_bin() -> Result<PathBuf, String> {
    if let Some(bin) = std::env::var_os("WARP_WORKER_BIN") {
        return Ok(PathBuf::from(bin));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("warp-worker");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "no worker binary: set WARP_WORKER_BIN or install warp-worker next to {}",
            me.display()
        ))
    }
}

fn run() -> Result<(), String> {
    let mut job_file: Option<PathBuf> = None;
    let mut n_workers: u32 = 2;
    let mut timeout = Duration::from_secs(300);
    let mut telemetry_out: Option<PathBuf> = None;
    let mut balance = false;
    let mut elastic = false;
    let mut min_workers: Option<u32> = None;
    let mut max_workers: Option<u32> = None;
    let mut admit_file: Option<PathBuf> = None;
    let mut handicaps: Vec<(u32, u64)> = Vec::new();
    let mut handicap_events: Vec<(u32, u64)> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut max_frame_bytes: Option<u64> = None;
    let mut resume_chunk_bytes: Option<u64> = None;
    let mut agg_window: Option<u64> = None;
    let mut agg_fixed = false;
    let mut resume: Option<PathBuf> = None;
    let mut rejoin_grace: Option<u64> = None;
    let mut supervise = false;
    // Flags that shape the job itself: refused together with --resume,
    // which must continue the journaled job verbatim (the executive
    // hashes the job against the journal header and rejects drift).
    let mut job_flags: Vec<&'static str> = Vec::new();

    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("stats") {
        argv.next();
        let path = argv.next().map(PathBuf::from).unwrap_or_else(|| usage());
        if argv.next().is_some() {
            usage();
        }
        return run_stats(&path);
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--telemetry" => {
                telemetry_out = Some(argv.next().map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--workers" => {
                n_workers = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--timeout" => {
                let secs: u64 = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                timeout = Duration::from_secs(secs);
            }
            "--balance" => {
                balance = true;
                job_flags.push("--balance");
            }
            "--elastic" => {
                elastic = true;
                job_flags.push("--elastic");
            }
            "--min-workers" => {
                min_workers = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--min-workers");
            }
            "--max-workers" => {
                max_workers = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--max-workers");
            }
            "--admit-file" => {
                admit_file = Some(argv.next().map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--store-dir" => {
                store_dir = Some(argv.next().unwrap_or_else(|| usage()));
                job_flags.push("--store-dir");
            }
            "--max-frame-bytes" => {
                max_frame_bytes = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--max-frame-bytes");
            }
            "--resume-chunk-bytes" => {
                resume_chunk_bytes = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--resume-chunk-bytes");
            }
            "--agg-window" => {
                agg_window = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--agg-window");
            }
            "--agg-fixed" => {
                agg_fixed = true;
                job_flags.push("--agg-fixed");
            }
            "--rejoin-grace" => {
                rejoin_grace = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                job_flags.push("--rejoin-grace");
            }
            "--resume" => {
                resume = Some(argv.next().map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--supervise" => supervise = true,
            "--slow" => {
                let spec = argv.next().unwrap_or_else(|| usage());
                let (proc_id, rest) = spec.split_once(':').unwrap_or_else(|| usage());
                let proc_id: u32 = proc_id.parse().ok().unwrap_or_else(|| usage());
                let (gap, events) = match rest.split_once(':') {
                    Some((gap, events)) => (gap, Some(events)),
                    None => (rest, None),
                };
                let gap: u64 = gap.parse().ok().unwrap_or_else(|| usage());
                handicaps.push((proc_id, gap));
                if let Some(events) = events {
                    let events: u64 = events.parse().ok().unwrap_or_else(|| usage());
                    handicap_events.push((proc_id, events));
                }
                job_flags.push("--slow");
            }
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => {
                if job_file.replace(PathBuf::from(arg)).is_some() {
                    usage();
                }
            }
        }
    }

    if let Some(dir) = &resume {
        if supervise {
            return Err(
                "--supervise starts a fresh run and resumes on its own; to continue a \
                 crashed run by hand use --resume alone"
                    .into(),
            );
        }
        if let Some(f) = job_flags.first() {
            return Err(format!(
                "{f} cannot be combined with --resume: a resumed run continues the \
                 journaled job verbatim (the executive refuses a job that drifted)"
            ));
        }
        if job_file.is_some() {
            return Err(
                "--resume reads the job from the journal; drop the JOB.json argument".into(),
            );
        }
        let job = resume_job(dir).map_err(|e| e.to_string())?;
        let mut cfg =
            dist_config(&job, n_workers, worker_bin()?, timeout).map_err(|e| e.to_string())?;
        cfg.admit_file = admit_file;
        let report = resume_coordinator(&cfg, dir).map_err(|e| e.to_string())?;
        return emit(&report, telemetry_out.as_deref());
    }

    let job_json = match &job_file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading job from stdin: {e}"))?;
            buf
        }
    };
    let mut job: ClusterJob =
        serde_json::from_str(&job_json).map_err(|e| format!("undecodable ClusterJob: {e}"))?;
    if telemetry_out.is_some() {
        job.telemetry = true;
    }
    if balance {
        job.balance.enabled = true;
        job.recovery.enabled = true;
    }
    if elastic {
        job.elastic.enabled = true;
        job.recovery.enabled = true;
    }
    if let Some(n) = min_workers {
        job.elastic.min_workers = n;
    }
    if let Some(n) = max_workers {
        job.elastic.max_workers = n;
    }
    if let Some(dir) = store_dir {
        job.recovery.store_dir = Some(dir);
        job.recovery.enabled = true;
    }
    if let Some(n) = max_frame_bytes {
        job.net.max_frame_bytes = n;
    }
    if let Some(n) = resume_chunk_bytes {
        job.recovery.resume_chunk_bytes = n;
    }
    match agg_window {
        Some(0) => job.aggregation = AggregationConfig::Unaggregated,
        Some(us) => {
            let window = us as f64 * 1e-6;
            job.aggregation = if agg_fixed {
                AggregationConfig::Faw { window }
            } else {
                AggregationConfig::Saaw {
                    initial_window: window,
                    min_window: AGG_MIN_WINDOW,
                    max_window: AGG_MAX_WINDOW,
                }
            };
        }
        None if agg_fixed => return Err("--agg-fixed pins the window --agg-window sets".into()),
        None => {}
    }
    if let Some(ms) = rejoin_grace {
        job.recovery.rejoin_grace_ms = ms;
        job.recovery.enabled = true;
    }
    job.handicaps.extend(handicaps);
    job.handicap_events.extend(handicap_events);

    if supervise {
        let Some(dir) = job.recovery.store_dir.clone() else {
            return Err(
                "--supervise needs a durable store: add --store-dir DIR (restarts resume \
                 from its run journal)"
                    .into(),
            );
        };
        return supervise_loop(
            &dir,
            &job,
            n_workers,
            timeout,
            telemetry_out.as_deref(),
            admit_file.as_deref(),
        );
    }

    let mut cfg =
        dist_config(&job, n_workers, worker_bin()?, timeout).map_err(|e| e.to_string())?;
    cfg.admit_file = admit_file;
    let report = run_coordinator(&cfg).map_err(|e| e.to_string())?;
    emit(&report, telemetry_out.as_deref())
}

/// Print the merged report: summary to stderr, JSON to stdout, and the
/// telemetry dump (plus adaptation summary) when requested.
fn emit(report: &warp_exec::RunReport, telemetry_out: Option<&Path>) -> Result<(), String> {
    eprintln!("{}", report.summary_line());
    if (!report.migrations.is_empty() || !report.scales.is_empty()) && telemetry_out.is_none() {
        // With --telemetry the adaptation summary prints below anyway.
        eprintln!("{}", report.adaptation_summary());
    }
    if let Some(path) = telemetry_out {
        let dump = report
            .telemetry
            .as_ref()
            .map(TelemetryReport::to_jsonl)
            .unwrap_or_default();
        std::fs::write(path, dump).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{}", report.adaptation_summary());
    }
    println!(
        "{}",
        serde_json::to_string(report).map_err(|e| format!("report encode: {e}"))?
    );
    Ok(())
}

/// `--supervise`: run the coordinator as a child process and restart it
/// with `--resume` after every unclean exit, until the run finishes or
/// the job's recovery budget is spent. The fully-shaped job is staged
/// into the store directory so restarts never depend on the original
/// JOB.json or the shaping flags; the child inherits stdio, so the
/// surviving attempt's report lands on stdout exactly like an
/// unsupervised run.
fn supervise_loop(
    store_dir: &str,
    job: &ClusterJob,
    n_workers: u32,
    timeout: Duration,
    telemetry_out: Option<&Path>,
    admit_file: Option<&Path>,
) -> Result<(), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(store_dir)
        .map_err(|e| format!("creating store dir {store_dir}: {e}"))?;
    let staged = Path::new(store_dir).join("job.json");
    let staged_json =
        serde_json::to_string_pretty(job).map_err(|e| format!("encoding job: {e}"))?;
    std::fs::write(&staged, staged_json)
        .map_err(|e| format!("staging {}: {e}", staged.display()))?;
    let budget = job.recovery.max_recoveries;
    let mut attempts = 0u32;
    loop {
        let mut cmd = std::process::Command::new(&me);
        if attempts == 0 {
            cmd.arg(&staged);
        } else {
            cmd.arg("--resume").arg(store_dir);
        }
        cmd.args(["--workers", &n_workers.to_string()]);
        cmd.args(["--timeout", &timeout.as_secs().to_string()]);
        if let Some(p) = telemetry_out {
            cmd.arg("--telemetry").arg(p);
        }
        if let Some(p) = admit_file {
            cmd.arg("--admit-file").arg(p);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning supervised coordinator: {e}"))?;
        if status.success() {
            return Ok(());
        }
        attempts += 1;
        if attempts > budget {
            return Err(format!(
                "supervised coordinator failed {attempts} time(s); recovery budget \
                 ({budget}) spent"
            ));
        }
        if !Path::new(store_dir).join("run.journal").exists() {
            return Err(format!(
                "supervised coordinator exited ({status}) before journaling anything; \
                 nothing to resume"
            ));
        }
        eprintln!(
            "warp-cluster: coordinator exited ({status}); resuming from {store_dir} \
             (attempt {attempts} of {budget})"
        );
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("warp-cluster: {e}");
        std::process::exit(1);
    }
}
