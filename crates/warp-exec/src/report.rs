//! Run reports: the measured output of an executive.

use serde::{Deserialize, Serialize};
use warp_control::cluster::Move;
use warp_core::stats::{CommStats, ObjectStats};
use warp_telemetry::TelemetryReport;

/// Per-object summary (final configuration and trace digest).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObjectSummary {
    /// Object id.
    pub id: u32,
    /// Model-provided name.
    pub name: String,
    /// Cancellation strategy in force at termination.
    pub final_mode: String,
    /// Checkpoint interval in force at termination.
    pub final_chi: u32,
    /// Committed events executed by this object.
    pub committed: u64,
    /// Full kernel statistics for this object.
    pub stats: ObjectStats,
    /// Committed-history digest (only when trace collection was on).
    pub trace_digest: Option<u64>,
}

/// Per-LP summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LpSummary {
    /// LP id.
    pub lp: u32,
    /// Merged kernel statistics over the LP's objects.
    pub kernel: ObjectStats,
    /// Communication statistics of the LP's aggregation layer.
    pub comm: CommStats,
    /// Per-object details.
    pub objects: Vec<ObjectSummary>,
}

/// One sample of the cluster's progress, taken at each GVT round when
/// timeline collection is enabled: the raw material of a space-time
/// diagram (optimism fronts vs. the commit horizon).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Modeled wall time of the sample (seconds).
    pub at: f64,
    /// GVT at the sample (`None` once infinite).
    pub gvt: Option<u64>,
    /// Per-LP optimism front: the largest object LVT in each LP.
    pub lp_fronts: Vec<u64>,
    /// Cumulative rollbacks at the sample.
    pub rollbacks: u64,
    /// Retained history items at the sample (memory pressure).
    pub retained: u64,
}

/// One LP migration performed by the distributed executive's cluster
/// loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// GVT at which the migration barrier committed (`None` if the
    /// horizon was still at virtual time zero).
    pub gvt: Option<u64>,
    /// The pressure index that triggered the move.
    pub imbalance: f64,
    /// The LPs that changed owner.
    pub moves: Vec<Move>,
}

/// One membership change performed by the distributed executive's
/// cluster loop (or its recovery fallback).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScaleRecord {
    /// GVT at which the scale barrier committed (`None` if the horizon
    /// was still at virtual time zero).
    pub gvt: Option<u64>,
    /// `"out"` (worker added), `"in"` (worker retired), or
    /// `"fallback"` (a scale-out undone because the newcomer died
    /// before proving itself; charged to the recovery budget).
    pub direction: String,
    /// Worker count before the change.
    pub from_workers: u32,
    /// Worker count after the change.
    pub to_workers: u32,
    /// The pressure index that triggered the scale (`-1` for a
    /// fallback).
    pub pressure: f64,
    /// The LPs that changed owner across the membership change.
    pub moves: Vec<Move>,
}

/// Resume and durable-store accounting for distributed runs. All zero
/// for the in-process executives and for fault-free distributed runs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumeStats {
    /// Total resume payload bytes the coordinator streamed to workers
    /// across all recoveries (before chunking overhead).
    pub resume_bytes: u64,
    /// `ResumeChunk` frames sent. More than one per worker per recovery
    /// means a worker's images outgrew the configured chunk size.
    pub resume_chunks: u64,
    /// Image bytes the workers shipped to the coordinator, over every
    /// committed checkpoint.
    #[serde(default)]
    pub ckpt_bytes: u64,
    /// Image bytes written to the on-disk segment file, by every
    /// coordinator incarnation of the run (0 when the store is off).
    pub store_spilled_bytes: u64,
    /// LPs a resume built from their images — on a survivor, a
    /// respawned worker, a migration target or a newcomer alike.
    #[serde(default)]
    pub images_loaded: u64,
}

impl ResumeStats {
    /// Accumulate another worker's (or session's) counters.
    pub fn merge(&mut self, other: &ResumeStats) {
        self.resume_bytes += other.resume_bytes;
        self.resume_chunks += other.resume_chunks;
        self.ckpt_bytes += other.ckpt_bytes;
        self.store_spilled_bytes += other.store_spilled_bytes;
        self.images_loaded += other.images_loaded;
    }
}

/// The result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Which executive produced this ("sequential", "virtual", "threaded").
    pub executive: String,
    /// The run's *execution time*: modeled seconds for the virtual
    /// cluster (max node clock at completion), wall seconds otherwise.
    pub completion_seconds: f64,
    /// Wall-clock seconds the run actually took on this machine.
    pub wall_seconds: f64,
    /// Events committed across all objects.
    pub committed_events: u64,
    /// Committed events per completion second — the paper's throughput
    /// metric (11,300 ev/s for SMMP, 10,917 ev/s for RAID, §8).
    pub events_per_second: f64,
    /// GVT rounds performed.
    pub gvt_rounds: u64,
    /// Merged kernel statistics.
    pub kernel: ObjectStats,
    /// Merged communication statistics.
    pub comm: CommStats,
    /// Per-LP breakdown.
    pub per_lp: Vec<LpSummary>,
    /// Progress samples (empty unless timeline collection was enabled).
    #[serde(default)]
    pub timeline: Vec<TimelineSample>,
    /// Checkpoint recoveries the distributed executive performed to
    /// finish the run (0 everywhere else, and on a fault-free run).
    #[serde(default)]
    pub recoveries: u64,
    /// LP migrations the distributed cluster loop performed (empty
    /// everywhere else, and when balancing was off or never triggered).
    #[serde(default)]
    pub migrations: Vec<MigrationRecord>,
    /// Elastic membership changes the distributed executive performed
    /// (empty everywhere else, and when elasticity was off or never
    /// triggered).
    #[serde(default)]
    pub scales: Vec<ScaleRecord>,
    /// The merged observation record — metric series and the control
    /// trajectory (`None` unless the spec enabled telemetry).
    #[serde(default)]
    pub telemetry: Option<TelemetryReport>,
    /// Peak resident set of each worker process that reported, in KiB
    /// (`VmHWM`; 0 where the platform does not say), in worker order.
    /// Empty outside the distributed executive.
    #[serde(default)]
    pub worker_peak_rss_kb: Vec<u64>,
    /// `write(2)` calls each worker that reported made on its links to
    /// its peer workers, over all its sessions, in worker order. Empty
    /// outside the distributed executive.
    #[serde(default)]
    pub worker_link_writes: Vec<u64>,
    /// Resume and checkpoint-store accounting (all zero outside the
    /// distributed executive). Kept last so legacy reports parse.
    #[serde(default)]
    pub resume: ResumeStats,
}

impl RunReport {
    /// Merged rollback fraction: rolled-back / executed.
    pub fn rollback_fraction(&self) -> f64 {
        if self.kernel.executed == 0 {
            0.0
        } else {
            self.kernel.rolled_back as f64 / self.kernel.executed as f64
        }
    }

    /// Committed-trace digests keyed by object id (empty when trace
    /// collection was off).
    pub fn trace_digests(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .per_lp
            .iter()
            .flat_map(|lp| lp.objects.iter())
            .filter_map(|o| o.trace_digest.map(|d| (o.id, d)))
            .collect();
        v.sort_unstable();
        v
    }

    /// One-line adaptation summary: where the controllers ended up.
    /// Final χ statistics and the cancellation-mode census come from the
    /// per-object summaries; the mean DyMA window needs telemetry (`-`
    /// without it, or when aggregation never adapted).
    pub fn adaptation_summary(&self) -> String {
        let objects: Vec<&ObjectSummary> = self
            .per_lp
            .iter()
            .flat_map(|lp| lp.objects.iter())
            .collect();
        let (chi, census) = if objects.is_empty() {
            ("-".into(), "no objects".into())
        } else {
            let chis: Vec<u32> = objects.iter().map(|o| o.final_chi).collect();
            let mean = chis.iter().map(|&c| c as u64).sum::<u64>() as f64 / chis.len() as f64;
            let lazy = objects.iter().filter(|o| o.final_mode == "Lazy").count();
            (
                format!(
                    "{}..{} (mean {mean:.2})",
                    chis.iter().min().unwrap(),
                    chis.iter().max().unwrap()
                ),
                format!("{lazy} lazy / {} aggressive", objects.len() - lazy),
            )
        };
        let window = self
            .telemetry
            .as_ref()
            .and_then(|t| t.mean_dyma_window())
            .map(|w| format!("{:.3}ms", w * 1e3))
            .unwrap_or_else(|| "-".into());
        let migrations = if self.migrations.is_empty() {
            "none".into()
        } else {
            let detail: Vec<String> = self
                .migrations
                .iter()
                .map(|m| {
                    let gvt = m.gvt.map(|g| g.to_string()).unwrap_or_else(|| "-".into());
                    let moves: Vec<String> = m
                        .moves
                        .iter()
                        .map(|mv| format!("lp{} w{}→w{}", mv.lp, mv.from, mv.to))
                        .collect();
                    format!("gvt {gvt}: {}", moves.join(", "))
                })
                .collect();
            format!("{} ({})", self.migrations.len(), detail.join("; "))
        };
        let scales = if self.scales.is_empty() {
            "none".into()
        } else {
            let detail: Vec<String> = self
                .scales
                .iter()
                .map(|s| {
                    let gvt = s.gvt.map(|g| g.to_string()).unwrap_or_else(|| "-".into());
                    format!(
                        "gvt {gvt}: {} {}→{} workers",
                        s.direction, s.from_workers, s.to_workers
                    )
                })
                .collect();
            format!("{} ({})", self.scales.len(), detail.join("; "))
        };
        format!(
            "adaptation: final chi {chi}, modes {census}, mean DyMA window {window}, migrations {migrations}, scales {scales}"
        )
    }

    /// Every reporting worker's peak resident set on one line, or `None`
    /// outside the distributed executive.
    pub fn worker_rss_line(&self) -> Option<String> {
        if self.worker_peak_rss_kb.is_empty() {
            return None;
        }
        let mb: Vec<String> = self
            .worker_peak_rss_kb
            .iter()
            .map(|&kb| format!("{:.1}", kb as f64 / 1024.0))
            .collect();
        Some(format!("workers: peak RSS {} MB", mb.join(" / ")))
    }

    /// The recovery checkpoints' cost on one line: image bytes shipped,
    /// images a resume loaded, bytes it streamed; `None` when no
    /// checkpoint ran.
    pub fn checkpoint_line(&self) -> Option<String> {
        let r = &self.resume;
        if r.ckpt_bytes == 0 && r.images_loaded == 0 {
            return None;
        }
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        Some(format!(
            "checkpoints: {:.2} MB of images shipped, {} images loaded, \
             {:.2} MB resumed in {} chunks",
            mb(r.ckpt_bytes),
            r.images_loaded,
            mb(r.resume_bytes),
            r.resume_chunks
        ))
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<10} committed={:<9} T={:>9.4}s ({:>8.0} ev/s) rollbacks={} ({:.1}% rolled) phys_msgs={} (aggr {:.2}x)",
            self.executive,
            self.committed_events,
            self.completion_seconds,
            self.events_per_second,
            self.kernel.rollbacks(),
            100.0 * self.rollback_fraction(),
            self.comm.phys_sent,
            self.comm.aggregation_ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            executive: "virtual".into(),
            completion_seconds: 2.0,
            wall_seconds: 0.5,
            committed_events: 1000,
            events_per_second: 500.0,
            gvt_rounds: 3,
            kernel: ObjectStats {
                executed: 1100,
                rolled_back: 100,
                ..Default::default()
            },
            comm: CommStats {
                events_offered: 50,
                phys_sent: 10,
                ..Default::default()
            },
            timeline: Vec::new(),
            recoveries: 0,
            migrations: Vec::new(),
            scales: Vec::new(),
            telemetry: None,
            worker_peak_rss_kb: Vec::new(),
            worker_link_writes: Vec::new(),
            resume: ResumeStats::default(),
            per_lp: vec![LpSummary {
                lp: 0,
                kernel: ObjectStats::default(),
                comm: CommStats::default(),
                objects: vec![ObjectSummary {
                    id: 7,
                    name: "disk".into(),
                    final_mode: "Lazy".into(),
                    final_chi: 4,
                    committed: 10,
                    stats: ObjectStats::default(),
                    trace_digest: Some(42),
                }],
            }],
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.rollback_fraction() - 100.0 / 1100.0).abs() < 1e-12);
        assert_eq!(r.trace_digests(), vec![(7, 42)]);
        let line = r.summary_line();
        assert!(line.contains("virtual"));
        assert!(line.contains("1000"));
        let adapt = r.adaptation_summary();
        assert!(adapt.contains("1 lazy / 0 aggressive"), "{adapt}");
        assert!(adapt.contains("4..4"), "{adapt}");
        assert!(adapt.contains("window -"), "no telemetry, no window");
        assert!(adapt.contains("migrations none"), "{adapt}");
    }

    #[test]
    fn migrations_show_up_in_the_adaptation_summary() {
        let mut r = report();
        r.migrations.push(MigrationRecord {
            gvt: Some(144),
            imbalance: 0.8,
            moves: vec![Move {
                lp: 3,
                from: 2,
                to: 1,
            }],
        });
        let adapt = r.adaptation_summary();
        assert!(adapt.contains("migrations 1"), "{adapt}");
        assert!(adapt.contains("gvt 144: lp3 w2→w1"), "{adapt}");
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.migrations.len(), 1);
        assert_eq!(back.migrations[0].moves[0].lp, 3);
    }

    #[test]
    fn scales_show_up_in_the_adaptation_summary_and_default_for_legacy_reports() {
        let mut r = report();
        assert!(
            r.adaptation_summary().contains("scales none"),
            "{}",
            r.adaptation_summary()
        );
        r.scales.push(ScaleRecord {
            gvt: Some(96),
            direction: "out".into(),
            from_workers: 2,
            to_workers: 3,
            pressure: 0.7,
            moves: vec![Move {
                lp: 5,
                from: 1,
                to: 3,
            }],
        });
        let adapt = r.adaptation_summary();
        assert!(adapt.contains("scales 1"), "{adapt}");
        assert!(adapt.contains("gvt 96: out 2→3 workers"), "{adapt}");
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scales.len(), 1);
        assert_eq!(back.scales[0].to_workers, 3);

        // A report written before elasticity existed has no `scales`
        // key; it must parse with an empty list.
        let cut = json.find(",\"scales\"").expect("scales serialized");
        let end = json[cut + 1..].find(",\"telemetry\"").unwrap() + cut + 1;
        let legacy = format!("{}{}", &json[..cut], &json[end..]);
        let old: RunReport = serde_json::from_str(&legacy).unwrap();
        assert!(old.scales.is_empty());
    }

    #[test]
    fn serializes_to_json() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"executive\":\"virtual\""));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.committed_events, 1000);
    }

    #[test]
    fn worker_rss_rides_the_report_and_defaults_for_legacy_reports() {
        let mut r = report();
        assert_eq!(r.worker_rss_line(), None, "no workers, no line");
        r.worker_peak_rss_kb = vec![20_480, 31_232];
        assert_eq!(
            r.worker_rss_line().as_deref(),
            Some("workers: peak RSS 20.0 / 30.5 MB")
        );
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker_peak_rss_kb, r.worker_peak_rss_kb);
        r.worker_link_writes = vec![9_214, 8_870];
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker_link_writes, r.worker_link_writes);
        // A report from before either field: both keys cut out.
        let cut = json.find(",\"worker_peak_rss_kb\"").expect("serialized");
        let end = json[cut + 1..].find(",\"resume\"").unwrap() + cut + 1;
        let legacy = format!("{}{}", &json[..cut], &json[end..]);
        assert!(!legacy.contains("worker_link_writes"));
        let old: RunReport = serde_json::from_str(&legacy).unwrap();
        assert!(old.worker_peak_rss_kb.is_empty());
        assert!(old.worker_link_writes.is_empty());
        // And one from before the link writes alone.
        let cut = json.find(",\"worker_link_writes\"").expect("serialized");
        let end = json[cut + 1..].find(",\"resume\"").unwrap() + cut + 1;
        let legacy = format!("{}{}", &json[..cut], &json[end..]);
        let old: RunReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.worker_peak_rss_kb, r.worker_peak_rss_kb);
        assert!(old.worker_link_writes.is_empty());
    }

    #[test]
    fn resume_stats_roundtrip_and_default_for_legacy_reports() {
        let mut r = report();
        r.resume.resume_bytes = 1 << 20;
        r.resume.resume_chunks = 17;
        r.resume.images_loaded = 3;
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.resume, r.resume);

        // A report written before the store existed has no `resume` key;
        // it must parse with zeroed counters (the field is declared last
        // so the key sits at the tail of the serialized object).
        let cut = json.find(",\"resume\"").expect("resume serialized last");
        let legacy = format!("{}}}", &json[..cut]);
        let old: RunReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.resume, ResumeStats::default());

        // A report whose comm counters still carry `local_events` (a
        // counter nothing fed) parses with the key ignored.
        let legacy = json.replace("\"comm\":{", "\"comm\":{\"local_events\":0,");
        assert_eq!(legacy.matches("local_events").count(), 2, "run and LP");
        let old: RunReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.comm, r.comm);
        assert_eq!(old.per_lp[0].comm, r.per_lp[0].comm);

        let mut sum = ResumeStats::default();
        sum.merge(&r.resume);
        sum.merge(&r.resume);
        assert_eq!(sum.resume_chunks, 34);
        assert_eq!(sum.images_loaded, 6);
    }
}
