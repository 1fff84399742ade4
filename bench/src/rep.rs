//! One rep: a single executive run in this (fresh) process, timed and
//! accounted, reported as one JSON line on stdout.

use crate::driver::run_driver;
use crate::procstat::{cpu_ticks, vm_hwm_kb};
use crate::spans::{summarize, Recorder, SpanSummary, RAW_SPANS_KEPT};
use crate::workloads::{online, Size, Workload};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use warp_core::stats::{CommStats, ObjectStats};
use warp_exec::{run_sequential, run_threaded, run_virtual, RunReport};
use warped_online::cluster::run_distributed_job;

/// A rep that runs longer than this has failed.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// What a rep runs the workload on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cell {
    /// `run_sequential`: the golden model and the efficiency anchor.
    Seq,
    /// `run_virtual` under the on-line configuration.
    Virtual,
    /// `run_virtual` under the model's static configuration.
    VirtualStatic,
    /// `run_virtual`, on-line configuration, telemetry recording on.
    VirtualTelemetry,
    /// `run_threaded`, static configuration.
    Threaded,
    /// `run_distributed_job`: 2 workers of 1 LP, static configuration.
    Dist,
    /// The benchmark's own driver, spans off.
    Driver,
    /// The benchmark's own driver, spans on.
    DriverTraced,
}

impl Cell {
    pub const ALL: [Cell; 8] = [
        Cell::Seq,
        Cell::Virtual,
        Cell::VirtualStatic,
        Cell::VirtualTelemetry,
        Cell::Threaded,
        Cell::Dist,
        Cell::Driver,
        Cell::DriverTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Cell::Seq => "seq",
            Cell::Virtual => "virtual",
            Cell::VirtualStatic => "virtual-static",
            Cell::VirtualTelemetry => "virtual-telemetry",
            Cell::Threaded => "threaded",
            Cell::Dist => "dist",
            Cell::Driver => "driver",
            Cell::DriverTraced => "driver-traced",
        }
    }

    pub fn parse(s: &str) -> Option<Cell> {
        Cell::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// The raw result of one rep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Sample {
    /// Wall seconds of the single `run_*` call.
    pub wall_s: f64,
    /// Wall seconds of the host calibration, mean of the pass before the
    /// rep and the pass after it (filled in by the harness, which runs
    /// them in processes of their own).
    pub calibration_s: f64,
    /// CPU ticks the call cost this process and the children it reaped.
    pub cpu_ticks: u64,
    /// Peak resident set of this process, kB.
    pub vm_hwm_kb: u64,
    pub committed: u64,
    /// Per-object committed events, in object-id order.
    pub per_object: Vec<u64>,
    /// Per-object committed-trace digests, in object-id order (empty
    /// unless the rep ran with digests on).
    pub digests: Vec<u64>,
    /// `RunReport::completion_seconds`: modeled for the virtual
    /// executive, wall otherwise.
    pub completion_s: f64,
    pub gvt_rounds: u64,
    pub kernel: ObjectStats,
    pub comm: CommStats,
    pub recoveries: u64,
    pub migrations: u64,
    pub scales: u64,
    /// Per-name span totals (the traced driver only).
    #[serde(default)]
    pub spans: Vec<SpanSummary>,
}

impl Sample {
    fn of_report(r: &RunReport) -> Sample {
        let mut objects: Vec<(u32, u64)> = r
            .per_lp
            .iter()
            .flat_map(|lp| &lp.objects)
            .map(|o| (o.id, o.committed))
            .collect();
        objects.sort_unstable();
        Sample {
            committed: r.committed_events,
            per_object: objects.iter().map(|o| o.1).collect(),
            digests: r.trace_digests().iter().map(|d| d.1).collect(),
            completion_s: r.completion_seconds,
            gvt_rounds: r.gvt_rounds,
            kernel: r.kernel.clone(),
            comm: r.comm.clone(),
            recoveries: r.recoveries,
            migrations: r.migrations.len() as u64,
            scales: r.scales.len() as u64,
            ..Sample::default()
        }
    }
}

/// Everything that identifies a rep; also its command line.
#[derive(Clone, Debug)]
pub struct RepSpec {
    pub workload: Workload,
    pub cell: Cell,
    pub seed: u64,
    pub size: Size,
    /// Keep the whole history and report committed-trace digests.
    pub digests: bool,
    /// Where the traced driver writes its trace file.
    pub trace_out: Option<PathBuf>,
}

impl RepSpec {
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "rep".to_string(),
            self.workload.name().to_string(),
            self.cell.name().to_string(),
            self.seed.to_string(),
            self.size.name().to_string(),
            (self.digests as u8).to_string(),
        ];
        if let Some(p) = &self.trace_out {
            args.push(p.display().to_string());
        }
        args
    }

    pub fn from_args(args: &[String]) -> Option<RepSpec> {
        let [workload, cell, seed, size, digests, rest @ ..] = args else {
            return None;
        };
        Some(RepSpec {
            workload: Workload::parse(workload)?,
            cell: Cell::parse(cell)?,
            seed: seed.parse().ok()?,
            size: Size::parse(size)?,
            digests: match digests.as_str() {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            trace_out: rest.first().map(PathBuf::from),
        })
    }

    pub fn label(&self) -> String {
        format!(
            "{} {} {}{}",
            self.workload.name(),
            self.cell.name(),
            self.size.name(),
            if self.digests { " digests" } else { "" }
        )
    }
}

/// The `warp-worker` binary: `WARP_WORKER_BIN`, or next to this one.
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
            "no worker binary: build warp-worker next to {} or set WARP_WORKER_BIN",
            me.display()
        ))
    }
}

/// Run the rep in this process.
pub fn run(rep: &RepSpec) -> Result<Sample, String> {
    let job = rep.workload.job(rep.seed, rep.size, rep.digests);
    let spec = job.spec();
    let mut recorder = Recorder::new(rep.cell == Cell::DriverTraced);
    let worker = match rep.cell {
        Cell::Dist => Some(worker_bin()?),
        _ => None,
    };

    let cpu_before = cpu_ticks();
    let start = Instant::now();
    let mut sample = match rep.cell {
        Cell::Seq => Sample::of_report(&run_sequential(&spec)),
        Cell::Virtual => Sample::of_report(&run_virtual(&online(spec))),
        Cell::VirtualStatic => Sample::of_report(&run_virtual(&spec)),
        Cell::VirtualTelemetry => Sample::of_report(&run_virtual(&online(spec).with_telemetry())),
        Cell::Threaded => Sample::of_report(&run_threaded(&spec)),
        Cell::Dist => {
            let worker = worker.expect("resolved above");
            let report = run_distributed_job(&job, 2, worker, RUN_TIMEOUT)
                .map_err(|e| format!("run_distributed_job: {e}"))?;
            Sample::of_report(&report)
        }
        Cell::Driver | Cell::DriverTraced => {
            let d = run_driver(&spec, &mut recorder);
            Sample {
                committed: d.per_object.iter().sum(),
                per_object: d.per_object,
                digests: if rep.digests { d.digests } else { Vec::new() },
                gvt_rounds: d.gvt_rounds,
                kernel: d.kernel,
                comm: d.comm,
                ..Sample::default()
            }
        }
    };
    sample.wall_s = start.elapsed().as_secs_f64();
    sample.cpu_ticks = cpu_ticks().total() - cpu_before.total();
    sample.vm_hwm_kb = vm_hwm_kb();

    if rep.cell == Cell::DriverTraced {
        sample.spans = summarize(recorder.spans());
        if let Some(path) = &rep.trace_out {
            write_trace(path, rep, &sample, &recorder)?;
        }
    }
    Ok(sample)
}

/// The trace file: the per-name budget over every span, then the first
/// [`RAW_SPANS_KEPT`] raw spans.
fn write_trace(
    path: &Path,
    rep: &RepSpec,
    sample: &Sample,
    recorder: &Recorder,
) -> Result<(), String> {
    let spans = recorder.spans();
    let kept = &spans[..spans.len().min(RAW_SPANS_KEPT)];
    let doc = serde_json::json!({
        "workload": rep.workload.name(),
        "seed": rep.seed,
        "size": rep.size.name(),
        "wall_ns": (sample.wall_s * 1e9) as u64,
        "span_count": spans.len(),
        "by_name": sample.spans,
        "raw_spans_kept": kept.len(),
        "spans": kept,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
