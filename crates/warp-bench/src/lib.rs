//! # warp-bench — the figure-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (Section 8):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig5_checkpointing` | Fig. 5 — normalized performance of dynamic checkpointing |
//! | `fig6_raid_cancellation` | Fig. 6 — RAID execution time vs requests, 6 strategies |
//! | `fig7_smmp_cancellation` | Fig. 7 — SMMP execution time vs test vectors, 5 strategies |
//! | `fig8_smmp_dyma` | Fig. 8 — SMMP execution time vs aggregate age (FAW/SAAW/none) |
//! | `fig9_raid_dyma` | Fig. 9 — RAID execution time vs aggregate age |
//! | `table_throughput` | §8 text — committed events/second baselines |
//! | `pending_set` | `OUT.json` (path argument) — timing-wheel vs legacy sorted-`Vec` pending set ops/s (see `docs/hot-path.md`) |
//!
//! Experiments run on the deterministic virtual-cluster executive with
//! the SPARC/10 Mb-Ethernet cost model; "execution time" is modeled
//! completion time. Like the paper ("five sets of measurements ... the
//! average of these values"), every data point averages several seeded
//! runs. Each binary prints a human-readable table and writes a JSON
//! series file under `results/`.

#![warn(missing_docs)]

pub mod svg;

use serde::Serialize;
use std::sync::Arc;
use warp_control::{DynamicCancellation, DynamicCheckpoint};
use warp_core::policy::{
    CancellationMode, CancellationSelector, CheckpointTuner, FixedCancellation, FixedCheckpoint,
    ObjectPolicies,
};
use warp_exec::{run_virtual, RunReport, SimulationSpec};

/// Default seeds averaged per data point (the paper averaged five
/// measurement sets; three keeps the harness fast while still smoothing
/// workload variation).
pub const DEFAULT_SEEDS: [u64; 3] = [11, 23, 47];

/// Cancellation strategies of Figures 6–7.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cancellation {
    /// Static aggressive cancellation.
    Aggressive,
    /// Static lazy cancellation.
    Lazy,
    /// Dynamic cancellation: filter depth, A2L and L2A thresholds.
    Dynamic {
        /// Hit-ratio filter depth.
        filter_depth: usize,
        /// Aggressive→lazy threshold.
        a2l: f64,
        /// Lazy→aggressive threshold.
        l2a: f64,
    },
    /// Single-threshold dynamic cancellation (dead zone eliminated).
    SingleThreshold {
        /// Hit-ratio filter depth.
        filter_depth: usize,
        /// The shared threshold.
        t: f64,
    },
    /// Permanently set after `n` comparisons (PS *n*).
    PermanentSet {
        /// Comparisons before freezing.
        n: u64,
    },
    /// Permanently aggressive after `n` successive misses (PA *n*).
    PermanentAggressive {
        /// Successive misses before freezing.
        n: usize,
    },
}

impl Cancellation {
    /// The paper's labels (AC, LC, DC, ST0.4, PS32, PA10, ...).
    pub fn label(&self) -> String {
        match self {
            Cancellation::Aggressive => "AC".into(),
            Cancellation::Lazy => "LC".into(),
            Cancellation::Dynamic { .. } => "DC".into(),
            Cancellation::SingleThreshold { t, .. } => format!("ST{t}"),
            Cancellation::PermanentSet { n } => format!("PS{n}"),
            Cancellation::PermanentAggressive { n } => format!("PA{n}"),
        }
    }

    /// Build the per-object selector.
    pub fn selector(&self) -> Box<dyn CancellationSelector> {
        const PERIOD: u64 = 16;
        match *self {
            Cancellation::Aggressive => Box::new(FixedCancellation(CancellationMode::Aggressive)),
            Cancellation::Lazy => Box::new(FixedCancellation(CancellationMode::Lazy)),
            Cancellation::Dynamic {
                filter_depth,
                a2l,
                l2a,
            } => Box::new(DynamicCancellation::dc(filter_depth, a2l, l2a, PERIOD)),
            Cancellation::SingleThreshold { filter_depth, t } => Box::new(
                DynamicCancellation::single_threshold(filter_depth, t, PERIOD),
            ),
            Cancellation::PermanentSet { n } => {
                Box::new(DynamicCancellation::permanent_set(16, n, 0.45, 0.2, PERIOD))
            }
            Cancellation::PermanentAggressive { n } => Box::new(
                DynamicCancellation::permanent_aggressive(16, n, 0.45, 0.2, PERIOD),
            ),
        }
    }
}

/// Checkpointing strategies of Figure 5.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checkpointing {
    /// Periodic with fixed interval χ.
    Periodic(u32),
    /// On-line configured (the paper's feedback controller).
    Dynamic,
}

impl Checkpointing {
    /// Human label.
    pub fn label(&self) -> String {
        match self {
            Checkpointing::Periodic(chi) => format!("P{chi}"),
            Checkpointing::Dynamic => "DYN".into(),
        }
    }

    /// Build the per-object tuner.
    pub fn tuner(&self) -> Box<dyn CheckpointTuner> {
        match *self {
            Checkpointing::Periodic(chi) => Box::new(FixedCheckpoint::new(chi)),
            Checkpointing::Dynamic => Box::new(DynamicCheckpoint::new(1, 64, 64)),
        }
    }
}

/// A uniform policy factory from a (cancellation, checkpointing) pair.
pub fn policies(c: Cancellation, k: Checkpointing) -> warp_exec::PolicyFactory {
    Arc::new(move |_| ObjectPolicies::new(c.selector(), k.tuner()))
}

/// Averaged measurement over seeds.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Mean modeled completion time (seconds).
    pub completion_seconds: f64,
    /// Mean committed events.
    pub committed_events: f64,
    /// Mean committed events per modeled second.
    pub events_per_second: f64,
    /// Mean rollback count.
    pub rollbacks: f64,
    /// Mean physical messages.
    pub phys_msgs: f64,
    /// Mean aggregation ratio.
    pub aggregation_ratio: f64,
    /// Seeds averaged.
    pub n_runs: usize,
}

/// Run `make_spec(seed)` on the virtual cluster for every seed and
/// average the headline metrics.
pub fn measure<F>(make_spec: F, seeds: &[u64]) -> Measurement
where
    F: Fn(u64) -> SimulationSpec,
{
    assert!(!seeds.is_empty());
    let mut m = Measurement {
        completion_seconds: 0.0,
        committed_events: 0.0,
        events_per_second: 0.0,
        rollbacks: 0.0,
        phys_msgs: 0.0,
        aggregation_ratio: 0.0,
        n_runs: seeds.len(),
    };
    for &seed in seeds {
        let r: RunReport = run_virtual(&make_spec(seed));
        m.completion_seconds += r.completion_seconds;
        m.committed_events += r.committed_events as f64;
        m.events_per_second += r.events_per_second;
        m.rollbacks += r.kernel.rollbacks() as f64;
        m.phys_msgs += r.comm.phys_sent as f64;
        m.aggregation_ratio += r.comm.aggregation_ratio();
    }
    let n = seeds.len() as f64;
    m.completion_seconds /= n;
    m.committed_events /= n;
    m.events_per_second /= n;
    m.rollbacks /= n;
    m.phys_msgs /= n;
    m.aggregation_ratio /= n;
    m
}

/// One (x, measurement) point of a figure series.
#[derive(Clone, Debug, Serialize)]
pub struct Point {
    /// The swept x value (requests, vectors, aggregate age, ...).
    pub x: f64,
    /// The measured values at x.
    pub m: Measurement,
}

/// A labeled curve of a figure.
#[derive(Clone, Debug, Serialize)]
pub struct Series {
    /// Legend label (AC, LC, "with FAW", ...).
    pub label: String,
    /// The curve.
    pub points: Vec<Point>,
}

/// A complete regenerated figure.
#[derive(Clone, Debug, Serialize)]
pub struct Figure {
    /// Identifier ("fig5", "fig6", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Print as an aligned text table, series as columns (values are mean
    /// modeled execution times in seconds).
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        print!("{:>12}", self.x_label);
        for s in &self.series {
            print!("{:>14}", s.label);
        }
        println!();
        let n_rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for row in 0..n_rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(row).map(|p| p.x))
                .unwrap_or(f64::NAN);
            print!("{x:>12.3}");
            for s in &self.series {
                match s.points.get(row) {
                    Some(p) => print!("{:>14.4}", p.m.completion_seconds),
                    None => print!("{:>14}", "-"),
                }
            }
            println!();
        }
        println!(
            "(values: mean modeled execution time in seconds, {} runs/point)",
            self.series
                .first()
                .and_then(|s| s.points.first())
                .map_or(0, |p| p.m.n_runs)
        );
    }

    /// Write the figure as JSON under `results/<id>.json` (directory
    /// created if needed). Returns the path written.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(
            &path,
            serde_json::to_vec_pretty(self).expect("figure serializes"),
        )?;
        Ok(path)
    }
}

/// Scale factor for quick harness runs: set `WARP_BENCH_SCALE` (e.g.
/// `0.1`) to shrink the workloads uniformly. Defaults to 1.0 (paper
/// scale).
pub fn scale() -> f64 {
    std::env::var("WARP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s.is_finite())
        .unwrap_or(1.0)
}

/// Apply the scale factor to a count, keeping at least `min`.
pub fn scaled(count: u64, min: u64) -> u64 {
    ((count as f64 * scale()).round() as u64).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_models::PholdConfig;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Cancellation::Aggressive.label(), "AC");
        assert_eq!(Cancellation::Lazy.label(), "LC");
        assert_eq!(
            Cancellation::Dynamic {
                filter_depth: 16,
                a2l: 0.45,
                l2a: 0.2
            }
            .label(),
            "DC"
        );
        assert_eq!(
            Cancellation::SingleThreshold {
                filter_depth: 16,
                t: 0.4
            }
            .label(),
            "ST0.4"
        );
        assert_eq!(Cancellation::PermanentSet { n: 32 }.label(), "PS32");
        assert_eq!(Cancellation::PermanentAggressive { n: 10 }.label(), "PA10");
        assert_eq!(Checkpointing::Periodic(1).label(), "P1");
        assert_eq!(Checkpointing::Dynamic.label(), "DYN");
    }

    #[test]
    fn measure_averages_runs() {
        let m = measure(
            |seed| {
                PholdConfig {
                    n_objects: 8,
                    n_lps: 2,
                    ttl: 15,
                    ..PholdConfig::new(15, seed)
                }
                .spec()
            },
            &[1, 2],
        );
        assert_eq!(m.n_runs, 2);
        assert!(m.committed_events > 0.0);
        assert!(m.completion_seconds > 0.0);
        assert!(m.events_per_second > 0.0);
    }

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(1000, 10) >= 10);
    }
}
