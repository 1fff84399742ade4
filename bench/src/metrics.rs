//! Metrics computed from a run's samples. Names, units and order here are
//! the ones `BENCHMARK.json` lists (a unit test holds the two together).

use crate::calibrate::NOMINAL_S;
use crate::measure::Measured;
use crate::procstat::TICKS_PER_S;
use crate::rep::{Cell, Sample};
use crate::stats::{median, spread, upper_quartile};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Median over `samples` reps (the value itself for exact counts,
    /// the upper quartile for `setup_s`).
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
    /// A count or modeled time of a deterministic executive: two runs of
    /// one commit on one seed must report the same bits.
    pub exact: bool,
}

/// A metric that is one number for the whole run.
fn single(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        min: value,
        max: value,
        samples,
        exact: false,
    }
}

/// A metric every rep of the on-line virtual run agrees on (checked):
/// taken from the first.
fn exact(name: &str, unit: &'static str, online: &[Sample], f: impl Fn(&Sample) -> f64) -> Metric {
    Metric {
        exact: true,
        ..single(name, unit, online.first().map_or(0.0, f), online.len())
    }
}

/// A metric whose value is one number per rep: the median, with range.
/// A cell whose every rep failed reports 0 (and the run is not correct).
fn over_reps(
    name: impl Into<String>,
    unit: &'static str,
    samples: &[Sample],
    f: impl Fn(&Sample) -> f64,
) -> Metric {
    let values: Vec<f64> = samples.iter().map(f).collect();
    if values.is_empty() {
        return single(name, unit, 0.0, 0);
    }
    Metric {
        name: name.into(),
        unit,
        value: median(&values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        samples: values.len(),
        exact: false,
    }
}

/// `num / den`, 0 when there was nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds the rep's calibration passes would have taken on the nominal
/// host, per second they did take: the host's speed while the rep ran.
fn host_speed(s: &Sample) -> f64 {
    ratio(NOMINAL_S, s.calibration_s)
}

/// Wall seconds of the rep's timed call, scaled to the nominal host.
fn host_s(s: &Sample) -> f64 {
    s.wall_s * host_speed(s)
}

/// CPU seconds of the rep's timed call, scaled to the nominal host.
fn cpu_s(s: &Sample) -> f64 {
    s.cpu_ticks as f64 / TICKS_PER_S * host_speed(s)
}

/// Median of `f` over the reps, 0 when a failed cell left none.
fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    over_reps("", "", samples, f).value
}

fn rollback_frac(s: &Sample) -> f64 {
    ratio(s.kernel.rolled_back as f64, s.kernel.executed as f64)
}

fn rate(s: &Sample) -> f64 {
    ratio(s.committed as f64, host_s(s))
}

fn per_kev(count: u64, s: &Sample) -> f64 {
    ratio(count as f64 * 1000.0, s.committed as f64)
}

/// The metrics a user of the simulator sees. Host time unless the name
/// says modeled.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        over_reps("seq_events_per_s", "1/s", m.samples(Cell::Seq), rate),
        over_reps(
            "virtual_events_per_s",
            "1/s",
            m.samples(Cell::Virtual),
            rate,
        ),
        over_reps(
            "threaded_events_per_s",
            "1/s",
            m.samples(Cell::Threaded),
            rate,
        ),
        over_reps("dist_events_per_s", "1/s", m.samples(Cell::Dist), rate),
        exact("modeled_completion_s", "s", m.samples(Cell::Virtual), |s| {
            s.completion_s
        }),
        over_reps("peak_rss_mb", "MB", m.samples(Cell::Threaded), |s| {
            s.vm_hwm_kb as f64 / 1024.0
        }),
        setup_s(&m.setup),
    ]
}

/// Set-up time is two-valued: mesh establishment wins or loses a dial
/// race that costs one 20 ms retry backoff, and loses it in half to all
/// of a run's sessions. A median flips between the two values when the
/// odds are even and a mean moves with the odds; the upper quartile is the
/// losing time whenever at least one session in four loses.
fn setup_s(setup: &[Sample]) -> Metric {
    let times: Vec<f64> = setup.iter().map(host_s).collect();
    Metric {
        value: if times.is_empty() {
            0.0
        } else {
            upper_quartile(&times)
        },
        ..over_reps("setup_s", "s", setup, host_s)
    }
}

/// The seven wall-clock counters of a parallel executive.
fn executive(prefix: &str, samples: &[Sample], seq_rate: f64, out: &mut Vec<Metric>) {
    let name = |leaf: &str| format!("exec.{prefix}.{leaf}");
    out.push(over_reps(name("efficiency"), "ratio", samples, |s| {
        ratio(rate(s), seq_rate)
    }));
    out.push(over_reps(
        name("rollback_frac"),
        "ratio",
        samples,
        rollback_frac,
    ));
    out.push(over_reps(name("rollback_len"), "events", samples, |s| {
        s.kernel.avg_rollback_length()
    }));
    // Two LP threads or two worker processes: 1 - this is idle wait.
    out.push(over_reps(name("cpu_busy_frac"), "ratio", samples, |s| {
        ratio(cpu_s(s), host_s(s) * 2.0)
    }));
    out.push(over_reps(name("cpu_us_per_event"), "us", samples, |s| {
        ratio(cpu_s(s) * 1e6, s.committed as f64)
    }));
    out.push(over_reps(name("gvt_rounds_per_s"), "1/s", samples, |s| {
        ratio(s.gvt_rounds as f64, host_s(s))
    }));
    let walls: Vec<f64> = samples.iter().map(host_s).collect();
    out.push(single(
        name("wall_spread"),
        "ratio",
        if walls.is_empty() {
            0.0
        } else {
            spread(&walls)
        },
        walls.len(),
    ));
}

/// Spans of the driver's own bookkeeping.
const DRIVER_SPANS: [&str; 3] = ["driver.run", "driver.turn", "driver.gvt_round"];
/// Both ends of a lane.
const SPSC_SPANS: [&str; 2] = ["net.spsc.send", "net.spsc.recv"];

/// `(count, items, self_ns)` of the named spans of one traced rep, the
/// nanoseconds scaled to the nominal host.
fn span_totals(s: &Sample, names: &[&str]) -> (f64, f64, f64) {
    s.spans
        .iter()
        .filter(|o| names.contains(&o.name.as_str()))
        .fold((0.0, 0.0, 0.0), |acc, o| {
            (
                acc.0 + o.count as f64,
                acc.1 + o.items as f64,
                acc.2 + o.self_ns as f64 * host_speed(s),
            )
        })
}

fn all_self_ns(s: &Sample) -> f64 {
    s.spans.iter().map(|o| o.self_ns as f64).sum::<f64>() * host_speed(s)
}

/// The metrics of single layers: counters of every executive's runs, the
/// modeled budget of the on-line virtual run, and the traced driver's
/// host-time budget.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    let seq_rate = median_of(m.samples(Cell::Seq), rate);

    // warp-exec
    executive("threaded", m.samples(Cell::Threaded), seq_rate, &mut out);
    executive("dist", m.samples(Cell::Dist), seq_rate, &mut out);
    out.push(over_reps(
        "exec.dist.recoveries",
        "count",
        m.samples(Cell::Dist),
        |s| s.recoveries as f64,
    ));
    let online = m.samples(Cell::Virtual);
    let exact =
        |name: &str, unit: &'static str, f: &dyn Fn(&Sample) -> f64| exact(name, unit, online, f);
    out.push(exact("exec.virtual.rollback_frac", "ratio", &rollback_frac));
    out.push(exact("exec.virtual.rollback_len", "events", &|s| {
        s.kernel.avg_rollback_length()
    }));
    out.push(exact("exec.virtual.gvt_rounds", "count", &|s| {
        s.gvt_rounds as f64
    }));

    // warp-core
    out.push(exact("core.states_saved_per_kev", "1/kev", &|s| {
        per_kev(s.kernel.states_saved, s)
    }));
    out.push(exact("core.coasted_per_kev", "1/kev", &|s| {
        per_kev(s.kernel.coasted, s)
    }));
    out.push(exact("core.anti_per_kev", "1/kev", &|s| {
        per_kev(s.kernel.anti_sent, s)
    }));
    out.push(exact("core.lazy_hit_ratio", "ratio", &|s| {
        ratio(
            s.kernel.lazy_hits as f64,
            (s.kernel.lazy_hits + s.kernel.lazy_misses) as f64,
        )
    }));
    out.push(exact("core.fossils_per_kev", "1/kev", &|s| {
        per_kev(s.kernel.fossils_collected, s)
    }));
    // Modeled CPU seconds by cause, as shares of all modeled CPU.
    let modeled_total = |s: &Sample| {
        let k = &s.kernel;
        k.cost_execution
            + k.cost_state_saving
            + k.cost_coasting
            + k.cost_rollback
            + k.cost_comparison
            + s.comm.cost_send
            + s.comm.cost_recv
    };
    type Cost = fn(&Sample) -> f64;
    let shares: [(&str, Cost); 5] = [
        ("execution", |s| s.kernel.cost_execution),
        ("state_saving", |s| s.kernel.cost_state_saving),
        ("coasting", |s| s.kernel.cost_coasting),
        ("rollback", |s| s.kernel.cost_rollback),
        ("comparison", |s| s.kernel.cost_comparison),
    ];
    for (leaf, cost) in shares {
        out.push(exact(
            &format!("core.modeled_share.{leaf}"),
            "ratio",
            &|s| ratio(cost(s), modeled_total(s)),
        ));
    }

    // warp-net
    out.push(exact("net.remote_event_frac", "ratio", &|s| {
        ratio(
            s.comm.events_offered as f64,
            (s.kernel.sent + s.kernel.anti_sent) as f64,
        )
    }));
    out.push(exact("net.events_per_phys_msg", "ratio", &|s| {
        s.comm.aggregation_ratio()
    }));
    out.push(exact("net.bytes_per_event", "B", &|s| {
        ratio(s.comm.bytes_sent as f64, s.comm.events_offered as f64)
    }));
    out.push(exact("net.modeled_share.comm", "ratio", &|s| {
        ratio(s.comm.cost_send + s.comm.cost_recv, modeled_total(s))
    }));
    for (prefix, cell) in [("threaded", Cell::Threaded), ("dist", Cell::Dist)] {
        out.push(over_reps(
            format!("net.{prefix}.phys_msgs_per_kev"),
            "1/kev",
            m.samples(cell),
            |s| per_kev(s.comm.phys_sent, s),
        ));
    }

    // warp-control
    let static_s = m
        .samples(Cell::VirtualStatic)
        .first()
        .map_or(0.0, |s| s.completion_s);
    out.push(exact("control.online_gain", "ratio", &|s| {
        ratio(static_s, s.completion_s)
    }));
    out.push(exact("control.strategy_switches", "count", &|s| {
        s.kernel.strategy_switches as f64
    }));
    out.push(exact("control.interval_adjustments", "count", &|s| {
        s.kernel.interval_adjustments as f64
    }));
    out.push(exact("control.window_adjustments", "count", &|s| {
        s.comm.window_adjustments as f64
    }));

    // warp-telemetry, warp-models
    let wall = |cell| median_of(m.samples(cell), host_s);
    out.push(single(
        "telemetry.overhead_frac",
        "ratio",
        ratio(wall(Cell::VirtualTelemetry), wall(Cell::Virtual)) - 1.0,
        m.samples(Cell::VirtualTelemetry).len(),
    ));
    out.push(single(
        "models.seq_ns_per_event",
        "ns",
        ratio(1e9, seq_rate),
        m.samples(Cell::Seq).len(),
    ));

    // The traced driver: host nanoseconds per call into each layer...
    let traced = m.samples(Cell::DriverTraced);
    type Per = fn((f64, f64, f64)) -> f64;
    let per_item: Per = |(_, items, self_ns)| ratio(self_ns, items);
    let per_call: Per = |(count, _, self_ns)| ratio(self_ns, count);
    let per_call_metrics: [(&str, &str, Per); 7] = [
        ("core.process", "ns_per_event", per_item),
        ("core.deliver", "ns_per_msg", per_call),
        ("core.fossil", "ns_per_round", per_call),
        ("core.gvt_scan", "ns_per_round", per_call),
        ("net.aggregate", "ns_per_event", per_item),
        ("net.frame_encode", "ns_per_msg", per_call),
        ("net.frame_decode", "ns_per_msg", per_call),
    ];
    for (span, leaf, per) in per_call_metrics {
        out.push(over_reps(
            format!("trace.{span}.{leaf}"),
            "ns",
            traced,
            |s| per(span_totals(s, &[span])),
        ));
    }
    out.push(over_reps("trace.net.spsc.ns_per_msg", "ns", traced, |s| {
        let sends = span_totals(s, &SPSC_SPANS[..1]).0;
        ratio(span_totals(s, &SPSC_SPANS).2, sends)
    }));
    // ...and each layer's share of the traced wall time.
    let share_of = |names: &'static [&'static str]| {
        move |s: &Sample| ratio(span_totals(s, names).2, all_self_ns(s))
    };
    const LAYER_SPANS: [&[&str]; 9] = [
        &["core.process"],
        &["core.deliver"],
        &["core.flush_idle"],
        &["core.fossil"],
        &["core.gvt_scan"],
        &["net.aggregate"],
        &["net.frame_encode"],
        &["net.frame_decode"],
        &SPSC_SPANS,
    ];
    for names in LAYER_SPANS {
        let span = names[0].trim_end_matches(".send");
        out.push(over_reps(
            format!("trace.share.{span}"),
            "ratio",
            traced,
            share_of(names),
        ));
    }
    out.push(over_reps(
        "trace.driver.self_share",
        "ratio",
        traced,
        share_of(&DRIVER_SPANS),
    ));
    out.push(over_reps(
        "trace.driver.events_per_s",
        "1/s",
        m.samples(Cell::Driver),
        rate,
    ));
    out.push(over_reps(
        "trace.budget_residual_frac",
        "ratio",
        traced,
        |s| ratio((all_self_ns(s) - host_s(s) * 1e9).abs(), host_s(s) * 1e9),
    ));
    out.push(single(
        "trace.overhead_frac",
        "ratio",
        ratio(wall(Cell::DriverTraced), wall(Cell::Driver)) - 1.0,
        traced.len(),
    ));
    out
}
