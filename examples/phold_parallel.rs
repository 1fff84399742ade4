//! PHOLD on the parallel executives: the kernel as a real parallel
//! program — one OS thread per LP, Mattern-token GVT, fossil
//! collection — cross-checked against the sequential golden model.
//!
//! ```text
//! cargo run --release --example phold_parallel [n_lps] [ttl] [--transport threads|tcp] [--telemetry OUT.jsonl]
//! ```
//!
//! `--transport threads` (default) runs every LP as a thread in this
//! process over the SPSC lane mesh. `--transport tcp` runs the same
//! model through the distributed executive: a coordinator plus two
//! `warp-worker` processes exchanging frames over loopback TCP. Both
//! print committed-events/sec and verify the committed history against
//! the sequential run.
//!
//! `--telemetry OUT.jsonl` records metric series and the control
//! trajectory during the parallel run, dumps them as JSONL, and prints
//! a one-line adaptation summary.

use std::path::PathBuf;
use std::time::Duration;
use warped_online::cluster::{run_distributed_job, ClusterJob, ModelSpec};
use warped_online::exec::{run_sequential, run_threaded};
use warped_online::models::PholdConfig;

/// Locate the `warp-worker` binary for the tcp transport. Examples live
/// in `target/<profile>/examples/`, so the worker sits one level up;
/// `WARP_WORKER_BIN` overrides for installed binaries.
fn worker_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("WARP_WORKER_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("examples dir has a parent");
    let name = if cfg!(windows) {
        "warp-worker.exe"
    } else {
        "warp-worker"
    };
    let candidate = profile_dir.join(name);
    if !candidate.exists() {
        eprintln!(
            "warp-worker not found at {} — build it first: cargo build --release --bin warp-worker \
             (or point WARP_WORKER_BIN at it)",
            candidate.display()
        );
        std::process::exit(2);
    }
    candidate
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut transport = "threads".to_string();
    let mut telemetry_out: Option<PathBuf> = None;
    let mut positional = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--transport" {
            transport = it.next().unwrap_or_else(|| {
                eprintln!("--transport needs a value: threads | tcp");
                std::process::exit(2);
            });
        } else if let Some(v) = a.strip_prefix("--transport=") {
            transport = v.to_string();
        } else if a == "--telemetry" {
            telemetry_out = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                eprintln!("--telemetry needs an output path");
                std::process::exit(2);
            })));
        } else if let Some(v) = a.strip_prefix("--telemetry=") {
            telemetry_out = Some(PathBuf::from(v));
        } else {
            positional.push(a);
        }
    }
    let n_lps: usize = positional.first().and_then(|a| a.parse().ok()).unwrap_or(4);
    let ttl: u32 = positional
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let cfg = PholdConfig {
        n_objects: n_lps * 8,
        n_lps,
        population_per_object: 2,
        ttl,
        ..PholdConfig::new(ttl, 99)
    };
    println!(
        "PHOLD: {} objects over {} LPs ({} transport), {} jobs, ttl {}, {} hops expected",
        cfg.n_objects,
        cfg.n_lps,
        transport,
        cfg.n_objects * cfg.population_per_object,
        cfg.ttl,
        cfg.expected_hops()
    );

    let mut spec = cfg.spec().with_traces().with_gvt_period(None);
    if telemetry_out.is_some() {
        spec = spec.with_telemetry();
    }
    let seq = run_sequential(&spec);
    println!("{}", seq.summary_line());

    let par = match transport.as_str() {
        "threads" => run_threaded(&spec),
        "tcp" => {
            let job = ClusterJob {
                collect_traces: true,
                telemetry: telemetry_out.is_some(),
                ..ClusterJob::new(ModelSpec::Phold(cfg.clone()), None)
            };
            let n_workers = (cfg.n_lps as u32).min(2);
            run_distributed_job(&job, n_workers, worker_bin(), Duration::from_secs(300))
                .unwrap_or_else(|e| {
                    eprintln!("distributed run failed: {e}");
                    std::process::exit(1);
                })
        }
        other => {
            eprintln!("unknown transport {other:?}: expected threads | tcp");
            std::process::exit(2);
        }
    };
    println!("{}", par.summary_line());
    println!(
        "throughput: {:.0} committed events/sec over {}",
        par.events_per_second, transport
    );

    assert_eq!(
        seq.trace_digests(),
        par.trace_digests(),
        "parallel execution must commit exactly the sequential history"
    );
    println!(
        "committed histories identical across {} objects ✓",
        cfg.n_objects
    );

    if let Some(path) = &telemetry_out {
        let dump = par
            .telemetry
            .as_ref()
            .map(warped_online::telemetry::TelemetryReport::to_jsonl)
            .unwrap_or_default();
        std::fs::write(path, dump).unwrap_or_else(|e| {
            eprintln!("writing {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("{}", par.adaptation_summary());
        println!("telemetry written to {}", path.display());
    }

    if transport == "threads" {
        // And once more with GVT + fossil collection on (memory-bounded).
        let spec = cfg.spec().with_gvt_period(Some(0.01));
        let par = run_threaded(&spec);
        println!(
            "with fossils: {} (GVT rounds {}, fossils {})",
            par.summary_line(),
            par.gvt_rounds,
            par.kernel.fossils_collected
        );
    }
}
