//! One measured run of one workload: digest checks, then cycles of timed
//! reps until the time budget is spent — each rep a fresh child process
//! of this binary, one at a time (a closed loop of one client).

use crate::rep::{Cell, RepSpec, Sample, RUN_TIMEOUT};
use crate::workloads::{Size, Workload};
use std::collections::BTreeMap;
use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Which metrics a run is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The end-to-end metrics: tracing off.
    EndToEnd,
    /// The per-layer metrics: counters of every executive plus the
    /// traced driver.
    Traced,
}

/// What to run and for how long.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub pass: Pass,
    /// Wall-second budget of the whole run: after [`MIN_CYCLES`], another
    /// cycle of reps starts only if it should still end inside it.
    pub seconds: f64,
    /// `--quick`: timed reps at one eighth size, [`QUICK_CYCLES`] of them,
    /// output under `quick/`.
    pub quick: bool,
}

/// Cycles every run completes, whatever its budget.
const MIN_CYCLES: usize = 3;
/// Cycles of a `--quick` run.
const QUICK_CYCLES: usize = 2;

/// One cycle of timed reps. Cells take turns inside a cycle, so every
/// cell's reps are spread over the whole run and see the same mix of
/// whatever else the host is doing. `(Dist, Minimal)` is the set-up rep.
fn cycle(pass: Pass, size: Size) -> Vec<(Cell, Size)> {
    match pass {
        Pass::EndToEnd => vec![
            (Cell::Seq, size),
            (Cell::Virtual, size),
            (Cell::Threaded, size),
            (Cell::Dist, size),
            (Cell::Dist, Size::Minimal),
            (Cell::Seq, size),
            (Cell::Threaded, size),
            (Cell::Dist, size),
            (Cell::Dist, Size::Minimal),
        ],
        Pass::Traced => vec![
            (Cell::Seq, size),
            (Cell::Virtual, size),
            (Cell::VirtualTelemetry, size),
            (Cell::Threaded, size),
            (Cell::Dist, size),
            (Cell::Driver, size),
            (Cell::DriverTraced, size),
        ],
    }
}

/// Everything one run produced.
pub struct Measured {
    pub plan: Plan,
    /// Timed samples per cell, in the order they ran.
    pub cells: BTreeMap<Cell, Vec<Sample>>,
    /// Minimal-size distributed sessions (end-to-end pass only).
    pub setup: Vec<Sample>,
    pub attempted: u64,
    /// One line per failed run.
    pub failures: Vec<String>,
    pub wall_s: f64,
}

impl Measured {
    pub fn samples(&self, cell: Cell) -> &[Sample] {
        self.cells.get(&cell).map_or(&[], Vec::as_slice)
    }
}

/// Run this binary with `args` as a child and return the last line it
/// printed. A child that fails, prints nothing or outlives
/// [`RUN_TIMEOUT`] is an error; either way it has been waited for when
/// this returns.
fn child_line(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // A process group of its own, so that a rep that hangs can be killed
    // together with the worker processes it started.
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");

    // The reader blocks until the child closes stdout, i.e. exits; the
    // watchdog bounds that wait without polling while a rep is timed.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let group = format!("-{}", child.id());
    let watchdog = std::thread::spawn(move || {
        let timed_out = done_rx.recv_timeout(RUN_TIMEOUT + Duration::from_secs(5))
            == Err(mpsc::RecvTimeoutError::Timeout);
        if timed_out {
            let _ = Command::new("kill").args(["-KILL", "--", &group]).status();
        }
        timed_out
    });
    let mut text = String::new();
    let read = stdout.read_to_string(&mut text);
    drop(done_tx);
    let timed_out = watchdog.join().expect("watchdog panicked");
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;

    if timed_out {
        return Err(format!("timed out after {RUN_TIMEOUT:?}"));
    }
    read.map_err(|e| format!("read stdout: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    Ok(line.to_string())
}

/// One rep in a fresh process.
fn spawn_rep(rep: &RepSpec) -> Result<Sample, String> {
    let line = child_line(&rep.to_args())?;
    serde_json::from_str(&line).map_err(|e| format!("unparseable sample: {e}"))
}

/// One calibration in a fresh process, in seconds.
fn spawn_calibration() -> Result<f64, String> {
    let line = child_line(&["calibrate".to_string()])?;
    line.parse()
        .map_err(|e| format!("unparseable calibration: {e}"))
}

struct Runner {
    plan: Plan,
    /// The calibration that followed the previous rep: it also precedes
    /// the next one.
    calibration_s: Option<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Runner {
    fn rep(&self, cell: Cell, size: Size, digests: bool) -> RepSpec {
        RepSpec {
            workload: self.plan.workload,
            cell,
            seed: self.plan.seed,
            size,
            digests,
            trace_out: (cell == Cell::DriverTraced && !digests).then(|| {
                out_dir(self.plan.quick).join(format!("trace-{}.json", self.plan.workload.name()))
            }),
        }
    }

    fn fail(&mut self, what: String) {
        eprintln!("FAILED {what}");
        self.failures.push(what);
    }

    /// Run one rep between two calibrations.
    fn calibrated(&mut self, rep: &RepSpec) -> Result<Sample, String> {
        let before = match self.calibration_s.take() {
            Some(s) => s,
            None => spawn_calibration()?,
        };
        let mut sample = spawn_rep(rep)?;
        let after = spawn_calibration()?;
        self.calibration_s = Some(after);
        sample.calibration_s = (before + after) / 2.0;
        Ok(sample)
    }

    /// Run one rep and check it against `golden`, the sequential run of
    /// the same size. A failed run is recorded and yields `None`.
    fn checked(&mut self, rep: &RepSpec, golden: Option<&Sample>) -> Option<Sample> {
        self.attempted += 1;
        let outcome = self.calibrated(rep).and_then(|s| match golden {
            Some(g) => check_against(&s, g, rep.digests).map(|()| s),
            None => Ok(s),
        });
        outcome
            .map_err(|e| self.fail(format!("{}: {e}", rep.label())))
            .ok()
    }
}

/// The committed history of `s` must be the sequential one, and nothing
/// may have disturbed the run.
fn check_against(s: &Sample, reference: &Sample, digests: bool) -> Result<(), String> {
    if s.committed != reference.committed {
        return Err(format!(
            "committed {} events, sequential commits {}",
            s.committed, reference.committed
        ));
    }
    if s.per_object != reference.per_object {
        return Err("per-object committed counts differ from sequential".into());
    }
    if digests && (s.digests.is_empty() || s.digests != reference.digests) {
        return Err("committed-trace digests differ from sequential".into());
    }
    if s.recoveries != 0 || s.migrations != 0 || s.scales != 0 {
        return Err(format!(
            "{} recoveries, {} migrations, {} scales in a fault-free run",
            s.recoveries, s.migrations, s.scales
        ));
    }
    Ok(())
}

/// Do all `samples` of a deterministic executive agree on every count
/// and on the modeled completion time, to the bit?
fn repeat_exactly(samples: &[&Sample]) -> bool {
    samples.windows(2).all(|w| {
        w[0].completion_s.to_bits() == w[1].completion_s.to_bits()
            && w[0].kernel == w[1].kernel
            && w[0].comm == w[1].comm
            && w[0].gvt_rounds == w[1].gvt_rounds
    })
}

pub fn measure(plan: Plan) -> Measured {
    std::fs::create_dir_all(out_dir(plan.quick)).expect("create the output directory");
    let start = Instant::now();
    let mut run = Runner {
        calibration_s: None,
        attempted: 0,
        failures: Vec::new(),
        plan,
    };
    let pass = run.plan.pass;
    let size = if run.plan.quick {
        Size::Eighth
    } else {
        Size::Full
    };

    // 1. Digest checks at one eighth size with the whole history kept:
    //    every executive must commit the sequential trace.
    let golden = run.rep(Cell::Seq, Size::Eighth, true);
    if let Some(golden) = run.checked(&golden, None) {
        let mut cells = vec![Cell::Virtual, Cell::Threaded, Cell::Dist];
        if pass == Pass::Traced {
            cells.push(Cell::DriverTraced);
        }
        for cell in cells {
            let rep = run.rep(cell, Size::Eighth, true);
            run.checked(&rep, Some(&golden));
        }
    }

    // 2. The sequential histories every timed rep must commit.
    let mut golden = BTreeMap::new();
    let sizes: &[Size] = match pass {
        Pass::EndToEnd => &[size, Size::Minimal],
        Pass::Traced => &[size],
    };
    for &size in sizes {
        let rep = run.rep(Cell::Seq, size, false);
        golden.extend(run.checked(&rep, None).map(|g| (size, g)));
    }
    let mut cells: BTreeMap<Cell, Vec<Sample>> = BTreeMap::new();
    let mut setup = Vec::new();
    if pass == Pass::Traced {
        // The static configuration's modeled time: needed once.
        let rep = run.rep(Cell::VirtualStatic, size, false);
        let sample = run.checked(&rep, golden.get(&size));
        cells.entry(Cell::VirtualStatic).or_default().extend(sample);
    }

    // 3. Cycles of timed reps while they fit the budget.
    let cycle = cycle(pass, size);
    let mut done = 0;
    let mut slowest_cycle_s: f64 = 0.0;
    loop {
        let fits = start.elapsed().as_secs_f64() + slowest_cycle_s <= run.plan.seconds;
        let more = if run.plan.quick {
            done < QUICK_CYCLES
        } else {
            done < MIN_CYCLES || fits
        };
        if !more {
            break;
        }
        let cycle_start = Instant::now();
        for &(cell, size) in &cycle {
            let rep = run.rep(cell, size, false);
            let sample = run.checked(&rep, golden.get(&size));
            if size == Size::Minimal {
                setup.extend(sample);
            } else {
                cells.entry(cell).or_default().extend(sample);
            }
        }
        slowest_cycle_s = slowest_cycle_s.max(cycle_start.elapsed().as_secs_f64());
        done += 1;
    }

    // 4. The deterministic executives must have repeated themselves;
    //    telemetry must not change what the virtual executive does, nor
    //    spans what the driver does.
    for group in [
        [Cell::Virtual, Cell::VirtualTelemetry],
        [Cell::Driver, Cell::DriverTraced],
    ] {
        let samples: Vec<&Sample> = group
            .iter()
            .filter_map(|c| cells.get(c))
            .flatten()
            .collect();
        if !repeat_exactly(&samples) {
            run.fail(format!("{} reps disagree on a count", group[0].name()));
        }
    }

    Measured {
        wall_s: start.elapsed().as_secs_f64(),
        plan: run.plan,
        cells,
        setup,
        attempted: run.attempted,
        failures: run.failures,
    }
}

/// Where results go, relative to the repository root: `bench/out`, or
/// `bench/out/quick` for `--quick`.
pub fn out_dir(quick: bool) -> PathBuf {
    PathBuf::from(if quick {
        "bench/out/quick"
    } else {
        "bench/out"
    })
}
