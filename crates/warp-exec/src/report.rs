//! Run reports: the measured output of an executive.

use serde::{Deserialize, Serialize};
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

/// One LP move inside a [`MigrationRecord`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MigrationMove {
    /// The migrated LP.
    pub lp: u32,
    /// Worker the LP left.
    pub from: u32,
    /// Worker the LP landed on.
    pub to: u32,
}

/// One on-line reconfiguration of the LP↔worker assignment performed by
/// the distributed executive's load balancer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// GVT at which the migration barrier committed (`None` if the
    /// horizon was still at virtual time zero).
    pub gvt: Option<u64>,
    /// The imbalance index that triggered the move.
    pub imbalance: f64,
    /// The LPs that changed owner.
    pub moves: Vec<MigrationMove>,
}

/// One elastic membership change performed by the distributed
/// executive's elastic controller (or its recovery fallback).
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
    pub moves: Vec<MigrationMove>,
}

/// Resume and durable-store accounting for distributed runs. All zero
/// for the in-process executives and for fault-free distributed runs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumeStats {
    /// Total resume payload bytes the coordinator streamed to workers
    /// across all recoveries (before chunking overhead).
    pub resume_bytes: u64,
    /// `ResumeChunk` frames sent. More than one per worker per recovery
    /// means a chain outgrew the configured chunk size.
    pub resume_chunks: u64,
    /// Delta-chain compactions the checkpoint store performed.
    pub compactions: u64,
    /// Delta bytes written to the on-disk segment store (appends and
    /// compaction/migration rewrites; 0 when the store is off).
    pub store_spilled_bytes: u64,
    /// LPs re-seeded by a full rebuild: object init plus replay of every
    /// committed event below the restore horizon.
    pub lps_rebuilt: u64,
    /// LPs recovered by in-place incremental rollback on a surviving
    /// worker — no replay of committed history at all.
    pub lps_rolled_back: u64,
    /// Committed events replayed during full rebuilds: the work the
    /// incremental path avoids.
    pub replayed_events: u64,
    /// Parked workers a restarted coordinator re-adopted via the
    /// protocol `Reattach` handshake instead of respawning.
    #[serde(default)]
    pub reattached: u64,
}

impl ResumeStats {
    /// Accumulate another worker's (or session's) counters.
    pub fn merge(&mut self, other: &ResumeStats) {
        self.resume_bytes += other.resume_bytes;
        self.resume_chunks += other.resume_chunks;
        self.compactions += other.compactions;
        self.store_spilled_bytes += other.store_spilled_bytes;
        self.lps_rebuilt += other.lps_rebuilt;
        self.lps_rolled_back += other.lps_rolled_back;
        self.replayed_events += other.replayed_events;
        self.reattached += other.reattached;
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
    /// LP migrations the distributed load balancer performed (empty
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
            moves: vec![MigrationMove {
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
            moves: vec![MigrationMove {
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
    fn resume_stats_roundtrip_and_default_for_legacy_reports() {
        let mut r = report();
        r.resume.resume_bytes = 1 << 20;
        r.resume.resume_chunks = 17;
        r.resume.lps_rolled_back = 3;
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

        let mut sum = ResumeStats::default();
        sum.merge(&r.resume);
        sum.merge(&r.resume);
        assert_eq!(sum.resume_chunks, 34);
        assert_eq!(sum.lps_rolled_back, 6);
    }
}
