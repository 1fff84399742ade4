//! SERVE: open-arrival service traffic under the on-line configured
//! kernel — the diurnal-wave scenario that drives the cluster loop (LP
//! migration and elastic membership) from modeled load alone.
//!
//! Millions of simulated users arrive through seeded thinning of a
//! diurnal rate (no per-user state); routers fan requests to batched
//! service stations whose KV caches evict under hot-tenant pressure;
//! sinks accumulate end-to-end latency histograms into committed state.
//!
//! ```text
//! cargo run --release --example serve_cluster            # in-process demo
//! cargo run --release --example serve_cluster -- --job     # smoke ClusterJob JSON
//! cargo run --release --example serve_cluster -- --digest  # sequential golden digests
//! ```
//!
//! `--job` and `--digest` are two halves of the CI `serve-smoke` check:
//! the first is the exact job the `warp-cluster` CLI runs with
//! `--balance --elastic`, the second is the sequential golden model's
//! committed digests for the same spec — byte-identical committed
//! histories mean the distributed report must match this output.

use warp_exec::distributed::RecoveryPolicy;
use warped_online::cluster::{ClusterJob, ModelSpec};
use warped_online::control::ClusterPolicy;
use warped_online::exec::{run_sequential, run_virtual_inspect, VirtualOptions};
use warped_online::models::serve::{SinkState, StationState};
use warped_online::models::ServeConfig;

/// The wave scenario as a distributed job: the same controller tuning
/// the end-to-end test uses — thresholds sized to the pressure signal
/// SERVE's wave actually produces (≈0.1 quiet, ≈0.7+ mid-wave).
fn wave_job() -> ClusterJob {
    ClusterJob {
        collect_traces: true,
        recovery: RecoveryPolicy {
            enabled: true,
            max_recoveries: 3,
            ckpt_min_interval_ms: 0,
            stall_budget_ms: 0,
            ..RecoveryPolicy::default()
        },
        cluster: ClusterPolicy {
            high: 0.5,
            low: 0.45,
            patience: 1,
            warmup_rounds: 1,
            max_migrations: 1,
            workers: Some((2, 3)),
            max_scales: 3,
            spawn: true,
        },
        ..ClusterJob::new(ModelSpec::Serve(ServeConfig::wave(42)), None)
    }
}

fn main() {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        Some("--job") => {
            let json = serde_json::to_string_pretty(&wave_job()).expect("job serializes");
            println!("{json}");
        }
        Some("--digest") => {
            let report = run_sequential(&wave_job().spec());
            let digests: Vec<serde_json::Value> = report
                .trace_digests()
                .into_iter()
                .map(|(id, d)| serde_json::json!([id, d]))
                .collect();
            let json = serde_json::json!({
                "committed_events": report.committed_events,
                "digests": digests,
            });
            println!(
                "{}",
                serde_json::to_string_pretty(&json).expect("digest JSON")
            );
        }
        _ => demo(),
    }
}

fn demo() {
    let cfg = ServeConfig::wave(42);
    println!(
        "SERVE: {} sources, {} routers, {} stations, {} sinks over {} LPs",
        cfg.n_sources, cfg.n_routers, cfg.n_stations, cfg.n_sinks, cfg.n_lps
    );
    println!(
        "       {} users, {} tenants, horizon {:.1} virtual ms, expecting ≈{:.0} arrivals",
        cfg.n_users,
        cfg.n_tenants,
        cfg.horizon_us as f64 / 1e3,
        cfg.expected_arrivals()
    );
    for b in &cfg.bursts {
        println!(
            "       wave [{:.0}..{:.0}) ms ×{:.1}{}",
            b.start_us as f64 / 1e3,
            b.end_us as f64 / 1e3,
            b.mult,
            if b.hot { " (hot-tenant skew)" } else { "" }
        );
    }

    let spec = cfg.spec().with_gvt_period(None);
    let (mut served, mut requeued, mut evictions, mut batches) = (0u64, 0u64, 0u64, 0u64);
    let mut sink = SinkState::default();
    let report = run_virtual_inspect(&spec, &VirtualOptions::default(), |lps| {
        for lp in lps {
            for o in lp.objects() {
                let i = o.id().0;
                if i >= cfg.sink_id(0) {
                    let s = o.state().get::<SinkState>();
                    sink.done += s.done;
                    sink.sum_latency_us += s.sum_latency_us;
                    sink.max_latency_us = sink.max_latency_us.max(s.max_latency_us);
                    for (b, v) in sink.buckets.iter_mut().zip(s.buckets.iter()) {
                        *b += v;
                    }
                } else if i >= cfg.station_id(0) {
                    let s = o.state().get::<StationState>();
                    served += s.served;
                    requeued += s.requeued;
                    evictions += s.evictions;
                    batches += s.batches;
                }
            }
        }
    });

    println!("{}", report.summary_line());
    println!(
        "stations: {served} served in {batches} batches ({:.2} per batch), \
         {requeued} re-queued, {evictions} KV evictions",
        served as f64 / batches.max(1) as f64
    );
    println!(
        "latency:  {} completions, mean {:.0} µs, max {} µs",
        sink.done,
        sink.mean_latency_us(),
        sink.max_latency_us
    );
    println!("latency histogram (log₂ µs buckets):");
    let peak = sink.buckets.iter().copied().max().unwrap_or(0).max(1);
    for (i, &n) in sink.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let bar = "#".repeat((n * 48).div_ceil(peak) as usize);
        println!("  2^{i:<2} {n:>7}  {bar}");
    }
}
