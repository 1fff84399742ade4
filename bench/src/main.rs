//! The repository benchmark. See `bench/README.md`.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is its result
//! bench [--seed N] [--seconds S] [--quick] [--agree]    the suite: every workload, both passes
//! bench rep ... | bench calibrate                       one rep, one calibration (spawned by the harness)
//! ```
//!
//! Run from the repository root, through `bench/run.sh`, which builds
//! `warp-worker` and this binary side by side first.

mod calibrate;
mod driver;
mod measure;
mod metrics;
mod procstat;
mod rep;
mod spans;
mod stats;
mod workloads;

use measure::{measure, Measured, Pass, Plan};
use metrics::Metric;
use rep::{Cell, RepSpec};
use serde_json::{json, Value};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

/// Seed of the suite when none is given.
const DEFAULT_SEED: u64 = 11;
/// Wall-second budget of one run: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

const USAGE: &str = "\
usage: bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
       bench/run.sh [--seed N] [--seconds S] [--quick] [--agree]

workloads: phold-dense smmp-paper serve-steady qnet-storm
  --trace 0   end-to-end metrics, tracing off
  --trace 1   per-layer metrics, including the traced driver
  --quick     1/8-size, 2-cycle smoke of every cell and check (not comparable)
  --agree     run the suite twice; fail unless the medians agree within bounds
";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    agree: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        agree: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn plan(workload: Workload, pass: Pass, args: &Args) -> Plan {
    Plan {
        workload,
        seed: args.seed,
        pass,
        seconds: args.seconds,
        quick: args.quick,
    }
}

fn metrics_of(m: &Measured) -> Vec<Metric> {
    match m.plan.pass {
        Pass::EndToEnd => metrics::end_to_end(m),
        Pass::Traced => metrics::per_layer(m),
    }
}

fn print_metrics(m: &Measured, metrics: &[Metric]) {
    println!(
        "== {} seed {} {} — {} runs, {} failed, {:.1} s ==",
        m.plan.workload.name(),
        m.plan.seed,
        match m.plan.pass {
            Pass::EndToEnd => "end-to-end (tracing off)",
            Pass::Traced => "per-layer (traced pass)",
        },
        m.attempted,
        m.failures.len(),
        m.wall_s,
    );
    for x in metrics {
        println!(
            "{:<36} {:>16.6} {:<6} [{:.6} .. {:.6}] n={}",
            x.name, x.value, x.unit, x.min, x.max, x.samples
        );
    }
    for f in &m.failures {
        println!("FAILED {f}");
    }
}

/// One run under the driver's contract: one JSON object on the last line.
fn contract_run(workload: Workload, args: &Args) -> ExitCode {
    let pass = if args.trace {
        Pass::Traced
    } else {
        Pass::EndToEnd
    };
    let start = Instant::now();
    let m = measure(plan(workload, pass, args));
    let metrics = metrics_of(&m);
    print_metrics(&m, &metrics);
    let name = format!("run-{}-trace{}.json", workload.name(), args.trace as u8);
    let doc = results_json(args, start, vec![run_json(&m, &metrics)]);
    write_results(&measure::out_dir(args.quick), &name, &doc);
    let by_name: Vec<(String, Value)> = metrics
        .iter()
        .map(|x| (x.name.clone(), json!({"value": x.value, "unit": x.unit})))
        .collect();
    let result = json!({
        "correct": m.failures.is_empty(),
        "attempted": m.attempted,
        "failed": m.failures.len(),
        "metrics": Value::Map(by_name),
    });
    println!("{}", serde_json::to_string(&result).expect("serialize"));
    ExitCode::SUCCESS
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One run's metrics, failures and every rep's raw sample.
fn run_json(m: &Measured, metrics: &[Metric]) -> Value {
    let mut samples: Vec<(String, Value)> = Cell::ALL
        .into_iter()
        .filter(|&c| !m.samples(c).is_empty())
        .map(|c| (c.name().to_string(), json!(m.samples(c))))
        .collect();
    if !m.setup.is_empty() {
        samples.push(("setup".into(), json!(m.setup)));
    }
    let metrics: Vec<Value> = metrics
        .iter()
        .map(|x| {
            json!({
                "name": x.name, "unit": x.unit, "median": x.value,
                "min": x.min, "max": x.max, "samples": x.samples, "exact": x.exact,
            })
        })
        .collect();
    json!({
        "workload": m.plan.workload.name(),
        "pass": match m.plan.pass {
            Pass::EndToEnd => "end_to_end",
            Pass::Traced => "per_layer",
        },
        "runs_attempted": m.attempted,
        "runs_failed": m.failures.len(),
        "failures": m.failures,
        "wall_s": m.wall_s,
        "metrics": metrics,
        "samples": Value::Map(samples),
    })
}

/// The results document: the runs plus what they ran on.
fn results_json(args: &Args, start: Instant, runs: Vec<Value>) -> Value {
    json!({
        "comparable": !args.quick,
        "size": if args.quick { "eighth (--quick): not comparable with full-size results" } else { "full" },
        "seed": args.seed,
        "seconds_per_run": args.seconds,
        "host": json!({
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or("unknown".into(), |s| s.trim().to_string()),
            "rustc": command_line("rustc", &["--version"]),
        }),
        "git_revision": command_line("git", &["rev-parse", "HEAD"]),
        "total_wall_s": start.elapsed().as_secs_f64(),
        "runs": runs,
    })
}

/// Both passes over every workload; returns the results document, every
/// run's metrics for `--agree`, and the number of failed runs.
fn suite(args: &Args) -> (Value, Vec<(Workload, Vec<Metric>)>, usize) {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut all_metrics = Vec::new();
    let mut failed = 0;
    for w in Workload::ALL {
        for pass in [Pass::EndToEnd, Pass::Traced] {
            let m = measure(plan(w, pass, args));
            let metrics = metrics_of(&m);
            print_metrics(&m, &metrics);
            failed += m.failures.len();
            runs.push(run_json(&m, &metrics));
            all_metrics.push((w, metrics));
        }
    }
    (results_json(args, start, runs), all_metrics, failed)
}

fn write_results(dir: &Path, name: &str, doc: &Value) {
    let path = dir.join(name);
    std::fs::create_dir_all(dir).expect("create the output directory");
    std::fs::write(&path, serde_json::to_string_pretty(doc).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("written to {}", path.display());
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`
/// in the current directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            Some((name?.to_string(), bound?))
        })
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: an end_to_end metric lacks name or bound".into())
}

/// Do two suites of one commit agree? Every end-to-end median within
/// its bound; every exact metric — modeled time, counts of the
/// deterministic executives — to the bit. Other per-layer metrics are
/// not compared.
fn agree(
    first: &[(Workload, Vec<Metric>)],
    second: &[(Workload, Vec<Metric>)],
    bounds: &[(String, f64)],
) -> bool {
    let mut ok = true;
    println!("== agreement of two suites of the same commit ==");
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for (x, y) in a.iter().zip(b) {
            let bound = bounds.iter().find(|(name, _)| *name == x.name);
            let diff = (y.value - x.value).abs() / x.value.abs();
            let (fine, rule) = match bound {
                _ if x.exact => (x.value.to_bits() == y.value.to_bits(), "exact".into()),
                Some((_, bound)) => (diff <= *bound, format!("{:.0}%", bound * 100.0)),
                None => continue,
            };
            ok &= fine;
            println!(
                "{:<13} {:<30} {:>16.6} {:>16.6} {:>7.2}% of {:<6} {}",
                w.name(),
                x.name,
                x.value,
                y.value,
                diff * 100.0,
                rule,
                if fine { "ok" } else { "DISAGREE" }
            );
        }
    }
    ok
}

fn suite_run(args: &Args) -> ExitCode {
    // `--agree` needs the bounds: find out before four minutes of suite.
    let bounds = match args.agree.then(bounds).transpose() {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = measure::out_dir(args.quick);
    let (doc, first, mut failed) = suite(args);
    write_results(&dir, "results.json", &doc);
    let mut agreed = true;
    if let Some(bounds) = bounds {
        let (doc, second, failed_again) = suite(args);
        write_results(&dir, "results-second.json", &doc);
        failed += failed_again;
        agreed = agree(&first, &second, &bounds);
    }
    println!("runs_failed: {failed}");
    if failed == 0 && agreed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "calibrate") {
        println!("{}", calibrate::calibration_s());
        return ExitCode::SUCCESS;
    }
    if argv.first().is_some_and(|a| a == "rep") {
        let Some(rep) = RepSpec::from_args(&argv[1..]) else {
            eprintln!("bench rep: bad arguments {:?}", &argv[1..]);
            return ExitCode::from(2);
        };
        return match rep::run(&rep) {
            Ok(sample) => {
                println!("{}", serde_json::to_string(&sample).expect("serialize"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench rep {}: {e}", rep.label());
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => contract_run(w, &args),
        None => suite_run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_args(&argv(
            "--workload qnet-storm --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::QnetStorm));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// `BENCHMARK.json` must list exactly the workloads and metrics the
    /// harness prints, with the same units, and the same run length.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed("workloads", "name"), names);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let empty = |pass| Measured {
            plan: plan(
                Workload::PholdDense,
                pass,
                &parse_args(&[]).expect("defaults"),
            ),
            cells: Default::default(),
            setup: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            wall_s: 0.0,
        };
        for (key, pass) in [("end_to_end", Pass::EndToEnd), ("per_layer", Pass::Traced)] {
            let produced = metrics_of(&empty(pass));
            let names: Vec<&str> = produced.iter().map(|x| x.name.as_str()).collect();
            let units: Vec<&str> = produced.iter().map(|x| x.unit).collect();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
    }
}
