//! # warp-telemetry — runtime observability for the Time Warp kernel
//!
//! The paper's whole argument is feedback control: every controller
//! samples an output `O` over a control period and moves a parameter
//! `I`. The kernel's end-of-run counters can say *whether* adaptation
//! helped, but not *what the controllers actually did* — the χ
//! hill-climb, the A2L/L2A flips, the DyMA window walk are invisible.
//! This crate is the observation plane that makes them visible without
//! perturbing the run:
//!
//! * [`Recorder`] — a per-LP, ring-buffered collector. At every control
//!   period boundary (a GVT round) it snapshots kernel gauges (GVT, the
//!   LP's optimism front, retained-history depth) plus *deltas* of the
//!   monotone [`ObjectStats`] counters into a [`Sample`], and drains the
//!   kernel's control-transition log into flat [`ControlEvent`]s.
//! * [`TelemetryReport`] — the mergeable result: cluster-wide series
//!   are built by merging per-LP (and, distributed, per-worker) reports.
//!   Exports as JSONL (one self-describing [`TelemetryLine`] per line),
//!   the format `warp-cluster stats` reads back. A distributed run's report also carries the
//!   coordinator's series of cluster-loop rounds ([`LoadRound`]), the
//!   input a replay of that loop feeds back.
//!
//! Observation is strictly passive: recording charges no modeled cost
//! and never touches the event path, so a run's committed trace digest
//! is byte-identical with telemetry on or off. Buffers are bounded
//! rings — when a run outlives the capacity the *oldest* entries fall
//! off and the drop is counted, never silently.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use warp_core::policy::{CancellationMode, ControlChange, ControlTransition};
use warp_core::{LpRuntime, ObjectStats, VirtualTime};

pub use warp_control::cluster::LoadRound;

/// Default ring capacity for metric samples, per recorder.
pub const DEFAULT_SAMPLE_CAP: usize = 4096;
/// Default ring capacity for control events, per recorder.
pub const DEFAULT_EVENT_CAP: usize = 16384;

/// `old`/`new` encoding of [`Param::Cancellation`]: aggressive.
pub const MODE_AGGRESSIVE: f64 = 0.0;
/// `old`/`new` encoding of [`Param::Cancellation`]: lazy.
pub const MODE_LAZY: f64 = 1.0;

/// A virtual time as an optional tick count (`None` = ∞), the JSON-safe
/// form used throughout the telemetry schema.
pub fn vt_ticks(t: VirtualTime) -> Option<u64> {
    t.is_finite().then(|| t.ticks())
}

fn mode_code(m: CancellationMode) -> f64 {
    match m {
        CancellationMode::Aggressive => MODE_AGGRESSIVE,
        CancellationMode::Lazy => MODE_LAZY,
    }
}

/// Which configured parameter a [`ControlEvent`] moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Param {
    /// Checkpoint interval χ (`old`/`new` are intervals; `sampled_o` is
    /// the cost index `Ec`). Recorded at every tuner invocation, moved
    /// or not, so the trajectory replays gaplessly.
    Chi,
    /// Cancellation strategy (`old`/`new` are [`MODE_AGGRESSIVE`] /
    /// [`MODE_LAZY`]; `sampled_o` is the Hit Ratio, `-1` when the policy
    /// samples nothing). Recorded on actual flips only.
    Cancellation,
    /// DyMA aggregation window of one LP's bucket (`object` is the
    /// *destination LP* of the adjusted bucket; `sampled_o` is `-1`).
    /// `old`/`new` are seconds on the clock the executive ages buckets
    /// by: modeled seconds on the virtual cluster, wall seconds on the
    /// threaded and distributed executives.
    Window,
    /// LP→worker assignment: the cluster loop migrated an LP
    /// (`lp`/`object` are the migrated LP; `old`/`new` are the source
    /// and destination worker ids; `sampled_o` is the pressure index
    /// that triggered the move). Recorded by the coordinator.
    Assignment,
    /// Cluster worker count: the cluster loop grew or shrank the
    /// worker set (`old`/`new` are worker counts; `lp`/`object` are 0;
    /// `sampled_o` is the pressure index that triggered the scale, `-1`
    /// for a recovery fallback). Recorded by the coordinator.
    ClusterSize,
    /// Coordinator fail-over: a restarted coordinator resumed the run
    /// from its durable store (`old`/`new` are the session epochs
    /// before and after the outage; `lp`/`object` are 0; `sampled_o` is
    /// the number of workers the resumed coordinator spawned). Recorded
    /// by the resumed coordinator.
    Coordinator,
}

/// One controller decision: the paper's `(O, I)` pair caught in the act,
/// stamped with where and when it happened.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlEvent {
    /// GVT at the boundary where the executive drained the event
    /// (`None` = the terminal ∞ round).
    pub gvt: Option<u64>,
    /// LP that hosts the deciding object.
    pub lp: u32,
    /// Object id — or, for [`Param::Window`], the destination LP.
    pub object: u32,
    /// The object's LVT when the decision was applied (`None` = ∞;
    /// absent for window events, which carry the bucket age instead).
    pub lvt: Option<u64>,
    /// Which parameter moved.
    pub param: Param,
    /// Value before (see [`Param`] for encodings).
    pub old: f64,
    /// Value after.
    pub new: f64,
    /// The sampled control output `O` behind the decision; `-1` when
    /// the policy exposes none.
    pub sampled_o: f64,
}

/// One per-LP metric snapshot, taken at a GVT round. Counter fields are
/// *deltas* since the LP's previous sample; gauges are instantaneous.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The freshly announced GVT (`None` = ∞, the terminal round).
    pub gvt: Option<u64>,
    /// The sampled LP.
    pub lp: u32,
    /// Gauge: the LP's optimism front (largest LVT among its objects).
    pub lvt_front: Option<u64>,
    /// Gauge: retained history items (input + output + state queues).
    pub retained: u64,
    /// Gauge: mean checkpoint interval χ across the LP's objects.
    pub mean_chi: f64,
    /// Gauge: objects currently running lazy cancellation.
    pub lazy_objects: u32,
    /// Gauge: total objects hosted (the census denominator).
    pub n_objects: u32,
    /// Delta: events executed.
    pub executed: u64,
    /// Delta: events undone by rollback.
    pub rolled_back: u64,
    /// Delta: rollbacks of either cause.
    pub rollbacks: u64,
    /// Delta: events re-executed during coast-forward.
    pub coasted: u64,
    /// Delta: anti-messages sent.
    pub anti_sent: u64,
    /// Mean rollback distance over the period (`rolled_back /
    /// rollbacks`, `0` when no rollback occurred).
    pub rollback_distance: f64,
}

/// One line of the JSONL export: every line is exactly one of these, so
/// a file is schema-checked by parsing each line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TelemetryLine {
    /// A metric snapshot.
    Sample(Sample),
    /// A controller decision.
    Event(ControlEvent),
    /// A round the cluster loop observed.
    Round(LoadRound),
}

/// Bounded ring: keeps the newest `cap` entries, counts what fell off.
#[derive(Debug)]
struct Ring<T> {
    buf: Vec<T>,
    start: usize,
    cap: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            start: 0,
            cap: cap.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.start] = v;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Remove and return everything, oldest first.
    fn drain_ordered(&mut self) -> Vec<T> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.start);
        self.start = 0;
        out
    }
}

/// Instantaneous kernel gauges for one LP, captured alongside each
/// sample. Usually built by [`gauges_of`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LpGauges {
    /// Largest LVT among the LP's objects.
    pub lvt_front: VirtualTime,
    /// Retained history items across the LP's objects.
    pub retained: u64,
    /// Mean checkpoint interval χ.
    pub mean_chi: f64,
    /// Objects currently in lazy mode.
    pub lazy_objects: u32,
    /// Total objects hosted.
    pub n_objects: u32,
}

/// Read the telemetry gauges off an LP runtime.
pub fn gauges_of(lp: &LpRuntime) -> LpGauges {
    let objects = lp.objects();
    let n = objects.len() as u32;
    let mut chi_sum = 0u64;
    let mut lazy = 0u32;
    for o in objects {
        chi_sum += o.checkpoint_interval() as u64;
        if o.cancellation_mode() == CancellationMode::Lazy {
            lazy += 1;
        }
    }
    LpGauges {
        lvt_front: lp.lvt_front(),
        retained: lp.history_items() as u64,
        mean_chi: if n > 0 {
            chi_sum as f64 / n as f64
        } else {
            0.0
        },
        lazy_objects: lazy,
        n_objects: n,
    }
}

/// Per-LP telemetry collector: ring-buffered samples and control
/// events, drained incrementally (distributed streaming) or once at the
/// end of a run.
#[derive(Debug)]
pub struct Recorder {
    lp: u32,
    samples: Ring<Sample>,
    events: Ring<ControlEvent>,
    /// Cumulative counters at the previous sample (delta baseline).
    last: ObjectStats,
}

impl Recorder {
    /// Recorder for one LP with the default ring capacities.
    pub fn new(lp: u32) -> Self {
        Self::with_capacity(lp, DEFAULT_SAMPLE_CAP, DEFAULT_EVENT_CAP)
    }

    /// Recorder with explicit ring capacities (tests, tight-memory runs).
    pub fn with_capacity(lp: u32, sample_cap: usize, event_cap: usize) -> Self {
        Recorder {
            lp,
            samples: Ring::new(sample_cap),
            events: Ring::new(event_cap),
            last: ObjectStats::default(),
        }
    }

    /// The LP this recorder observes.
    pub fn lp(&self) -> u32 {
        self.lp
    }

    /// One-stop GVT-boundary hook: drain the LP's control-transition
    /// log, then snapshot gauges and stat deltas. Call once per LP per
    /// GVT round, after the round's GVT is known.
    pub fn observe_lp(&mut self, gvt: VirtualTime, lp: &mut LpRuntime) {
        for t in lp.take_control_log() {
            self.transition(gvt, &t);
        }
        let gauges = gauges_of(lp);
        self.sample(gvt, gauges, &lp.stats());
    }

    /// Record a metric snapshot from explicit gauges and *cumulative*
    /// stats (the recorder computes the deltas).
    pub fn sample(&mut self, gvt: VirtualTime, gauges: LpGauges, cumulative: &ObjectStats) {
        let d = |now: u64, then: u64| now.saturating_sub(then);
        let rolled_back = d(cumulative.rolled_back, self.last.rolled_back);
        let rollbacks = d(cumulative.rollbacks(), self.last.rollbacks());
        self.samples.push(Sample {
            gvt: vt_ticks(gvt),
            lp: self.lp,
            lvt_front: vt_ticks(gauges.lvt_front),
            retained: gauges.retained,
            mean_chi: gauges.mean_chi,
            lazy_objects: gauges.lazy_objects,
            n_objects: gauges.n_objects,
            executed: d(cumulative.executed, self.last.executed),
            rolled_back,
            rollbacks,
            coasted: d(cumulative.coasted, self.last.coasted),
            anti_sent: d(cumulative.anti_sent, self.last.anti_sent),
            rollback_distance: if rollbacks > 0 {
                rolled_back as f64 / rollbacks as f64
            } else {
                0.0
            },
        });
        self.last = cumulative.clone();
    }

    /// Record one kernel control transition, stamped with the GVT of the
    /// round that drained it.
    pub fn transition(&mut self, gvt: VirtualTime, t: &ControlTransition) {
        let (param, old, new, sampled_o) = match t.change {
            ControlChange::Checkpoint {
                old,
                new,
                sampled_o,
            } => (Param::Chi, old as f64, new as f64, sampled_o),
            ControlChange::Cancellation {
                old,
                new,
                sampled_o,
            } => (
                Param::Cancellation,
                mode_code(old),
                mode_code(new),
                sampled_o,
            ),
        };
        self.events.push(ControlEvent {
            gvt: vt_ticks(gvt),
            lp: self.lp,
            object: t.object.0,
            lvt: vt_ticks(t.lvt),
            param,
            old,
            new,
            sampled_o: if sampled_o.is_finite() {
                sampled_o
            } else {
                -1.0
            },
        });
    }

    /// Record a DyMA aggregation-window change on the bucket toward
    /// `dst_lp`.
    pub fn window_change(&mut self, gvt: VirtualTime, dst_lp: u32, old: f64, new: f64) {
        self.events.push(ControlEvent {
            gvt: vt_ticks(gvt),
            lp: self.lp,
            object: dst_lp,
            lvt: None,
            param: Param::Window,
            old,
            new,
            sampled_o: -1.0,
        });
    }

    /// Drain everything recorded since the last drain as a mergeable
    /// batch — the unit workers stream to the coordinator. `None` when
    /// nothing new was recorded.
    pub fn drain(&mut self) -> Option<TelemetryReport> {
        if self.samples.buf.is_empty() && self.events.buf.is_empty() {
            return None;
        }
        Some(TelemetryReport {
            samples: self.samples.drain_ordered(),
            events: self.events.drain_ordered(),
            dropped_samples: std::mem::replace(&mut self.samples.dropped, 0),
            dropped_events: std::mem::replace(&mut self.events.dropped, 0),
            rounds: Vec::new(),
        })
    }

    /// Consume the recorder into its final report.
    pub fn finish(mut self) -> TelemetryReport {
        self.drain().unwrap_or_default()
    }
}

/// The merged observation record of a run (or a streamed slice of one).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Metric snapshots, ordered by `(gvt, lp)` after [`merge`](Self::merge).
    pub samples: Vec<Sample>,
    /// Controller decisions, ordered by `(gvt, lp, object)`.
    pub events: Vec<ControlEvent>,
    /// Samples lost to ring overflow (oldest-first eviction).
    pub dropped_samples: u64,
    /// Control events lost to ring overflow.
    pub dropped_events: u64,
    /// Every complete load round the coordinator fed the cluster loop,
    /// ordered by `(session, gvt)`.
    #[serde(default)]
    pub rounds: Vec<LoadRound>,
}

fn gvt_key(g: Option<u64>) -> u64 {
    g.unwrap_or(u64::MAX)
}

impl TelemetryReport {
    /// True when nothing at all was observed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
            && self.events.is_empty()
            && self.rounds.is_empty()
            && self.dropped_samples == 0
            && self.dropped_events == 0
    }

    /// Fold another report (another LP, another worker, a streamed
    /// batch) into this one, keeping the series globally ordered.
    pub fn merge(&mut self, other: TelemetryReport) {
        self.samples.extend(other.samples);
        self.events.extend(other.events);
        self.dropped_samples += other.dropped_samples;
        self.dropped_events += other.dropped_events;
        self.rounds.extend(other.rounds);
        self.samples.sort_by_key(|s| (gvt_key(s.gvt), s.lp));
        self.rounds.sort_by_key(|r| (r.session, r.gvt));
        self.events
            .sort_by_key(|e| (gvt_key(e.gvt), e.lp, e.object));
    }

    /// Mean DyMA window over every recorded window adjustment (`None`
    /// when aggregation never adapted).
    pub fn mean_dyma_window(&self) -> Option<f64> {
        let windows: Vec<f64> = self
            .events
            .iter()
            .filter(|e| e.param == Param::Window)
            .map(|e| e.new)
            .collect();
        if windows.is_empty() {
            None
        } else {
            Some(windows.iter().sum::<f64>() / windows.len() as f64)
        }
    }

    /// Count of events that moved the given parameter.
    pub fn moves_of(&self, param: Param) -> usize {
        self.events
            .iter()
            .filter(|e| e.param == param && e.old != e.new)
            .count()
    }

    /// One JSON object per line: samples first (GVT order), then
    /// events, then rounds.
    pub fn to_jsonl(&self) -> String {
        let samples = self.samples.iter().map(|s| TelemetryLine::Sample(*s));
        let events = self.events.iter().map(|e| TelemetryLine::Event(*e));
        let rounds = self.rounds.iter().map(|r| TelemetryLine::Round(r.clone()));
        let mut out = String::new();
        for line in samples.chain(events).chain(rounds) {
            out.push_str(&serde_json::to_string(&line).expect("telemetry line json"));
            out.push('\n');
        }
        out
    }

    /// Rebuild a report from JSONL (the `stats` subcommand and the CI
    /// schema check). Every non-empty line must parse as a
    /// [`TelemetryLine`].
    pub fn from_jsonl(text: &str) -> Result<TelemetryReport, String> {
        let mut report = TelemetryReport::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<TelemetryLine>(line) {
                Ok(TelemetryLine::Sample(s)) => report.samples.push(s),
                Ok(TelemetryLine::Event(e)) => report.events.push(e),
                Ok(TelemetryLine::Round(r)) => report.rounds.push(r),
                Err(e) => return Err(format!("line {}: {e}", i + 1)),
            }
        }
        Ok(report)
    }

    /// One-line digest for logs and the `stats` subcommand.
    pub fn summary_line(&self) -> String {
        let max_gvt = self
            .samples
            .iter()
            .filter_map(|s| s.gvt)
            .max()
            .map(|g| g.to_string())
            .unwrap_or_else(|| "∞-only".into());
        let window = self
            .mean_dyma_window()
            .map(|w| format!("{w:.3}"))
            .unwrap_or_else(|| "-".into());
        format!(
            "telemetry: {} samples, {} events ({} χ moves, {} mode flips, {} window moves, \
             {} migrations, {} scales, {} failovers), max finite gvt {}, \
             mean DyMA window {}, dropped {}/{}",
            self.samples.len(),
            self.events.len(),
            self.moves_of(Param::Chi),
            self.moves_of(Param::Cancellation),
            self.moves_of(Param::Window),
            self.moves_of(Param::Assignment),
            self.moves_of(Param::ClusterSize),
            self.moves_of(Param::Coordinator),
            max_gvt,
            window,
            self.dropped_samples,
            self.dropped_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::ObjectId;

    fn sample_at(gvt: u64, lp: u32) -> Sample {
        Sample {
            gvt: Some(gvt),
            lp,
            ..Sample::default()
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.dropped, 2);
        assert_eq!(r.drain_ordered(), vec![2, 3, 4], "oldest first");
    }

    #[test]
    fn recorder_samples_deltas_not_cumulatives() {
        let mut rec = Recorder::new(1);
        let gauges = LpGauges {
            lvt_front: VirtualTime::new(10),
            retained: 5,
            mean_chi: 1.0,
            lazy_objects: 0,
            n_objects: 2,
        };
        let mut stats = ObjectStats {
            executed: 10,
            rolled_back: 4,
            straggler_rollbacks: 2,
            ..Default::default()
        };
        rec.sample(VirtualTime::new(5), gauges, &stats);
        stats.executed = 25;
        stats.rolled_back = 6;
        stats.straggler_rollbacks = 3;
        rec.sample(VirtualTime::new(9), gauges, &stats);
        let report = rec.finish();
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.samples[0].executed, 10);
        assert_eq!(report.samples[1].executed, 15, "delta, not cumulative");
        assert_eq!(report.samples[1].rolled_back, 2);
        assert_eq!(report.samples[1].rollbacks, 1);
        assert_eq!(report.samples[1].rollback_distance, 2.0);
    }

    #[test]
    fn transitions_flatten_with_sane_encodings() {
        let mut rec = Recorder::new(0);
        rec.transition(
            VirtualTime::new(7),
            &ControlTransition {
                object: ObjectId(3),
                lvt: VirtualTime::new(6),
                change: ControlChange::Checkpoint {
                    old: 2,
                    new: 4,
                    sampled_o: 1.5,
                },
            },
        );
        rec.transition(
            VirtualTime::new(8),
            &ControlTransition {
                object: ObjectId(3),
                lvt: VirtualTime::INFINITY,
                change: ControlChange::Cancellation {
                    old: CancellationMode::Aggressive,
                    new: CancellationMode::Lazy,
                    sampled_o: f64::NAN,
                },
            },
        );
        rec.window_change(VirtualTime::new(9), 2, 0.001, 0.002);
        let r = rec.finish();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.events[0].param, Param::Chi);
        assert_eq!((r.events[0].old, r.events[0].new), (2.0, 4.0));
        assert_eq!(r.events[0].sampled_o, 1.5);
        assert_eq!(r.events[1].param, Param::Cancellation);
        assert_eq!(r.events[1].new, MODE_LAZY);
        assert_eq!(r.events[1].sampled_o, -1.0, "NaN sanitized");
        assert_eq!(r.events[1].lvt, None, "∞ LVT maps to None");
        assert_eq!(r.events[2].param, Param::Window);
        assert_eq!(r.events[2].object, 2, "window events carry the dst LP");
        assert_eq!(r.moves_of(Param::Chi), 1);
        assert_eq!(r.mean_dyma_window(), Some(0.002));
    }

    #[test]
    fn drain_is_incremental_and_finish_collects_the_tail() {
        let mut rec = Recorder::new(0);
        assert!(rec.drain().is_none(), "nothing recorded yet");
        let gauges = LpGauges {
            lvt_front: VirtualTime::ZERO,
            retained: 0,
            mean_chi: 1.0,
            lazy_objects: 0,
            n_objects: 1,
        };
        rec.sample(VirtualTime::new(1), gauges, &ObjectStats::default());
        let batch = rec.drain().expect("one sample pending");
        assert_eq!(batch.samples.len(), 1);
        assert!(rec.drain().is_none(), "drained clean");
        rec.sample(VirtualTime::new(2), gauges, &ObjectStats::default());
        assert_eq!(rec.finish().samples.len(), 1, "only the tail");
    }

    #[test]
    fn merge_orders_globally_and_jsonl_round_trips() {
        let mut a = TelemetryReport {
            samples: vec![sample_at(9, 0), sample_at(2, 0)],
            ..Default::default()
        };
        a.merge(TelemetryReport {
            samples: vec![sample_at(5, 1)],
            events: vec![ControlEvent {
                gvt: Some(5),
                lp: 1,
                object: 0,
                lvt: Some(4),
                param: Param::Chi,
                old: 1.0,
                new: 2.0,
                sampled_o: 0.5,
            }],
            dropped_samples: 3,
            dropped_events: 0,
            rounds: vec![LoadRound {
                session: 1,
                gvt: 5,
                owners: vec![1, 2],
                can_add: false,
                loads: vec![Default::default(); 2],
                plan: None,
            }],
        });
        let gvts: Vec<_> = a.samples.iter().map(|s| s.gvt.unwrap()).collect();
        assert_eq!(gvts, vec![2, 5, 9]);
        assert_eq!(a.dropped_samples, 3);

        let text = a.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let back = TelemetryReport::from_jsonl(&text).expect("schema-valid");
        assert_eq!(back.samples, a.samples);
        assert_eq!(back.events, a.events);
        assert_eq!(back.rounds, a.rounds);
        assert!(TelemetryReport::from_jsonl("{\"bogus\":1}\n").is_err());

        assert!(!a.summary_line().is_empty());
    }
}
