//! The repository's strongest correctness property, checked with
//! randomized workloads and configurations: **whatever the configuration
//! — cancellation strategy, checkpoint interval, aggregation policy,
//! executive — the committed per-object event history equals the
//! sequential golden model's.**

use proptest::prelude::*;
use std::sync::Arc;
use warped_online::control::{DynamicCancellation, DynamicCheckpoint};
use warped_online::core::policy::{
    CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies,
};
use warped_online::exec::{run_sequential, run_threaded, run_virtual, SimulationSpec};
use warped_online::models::{Netlist, PholdConfig, QnetConfig, RaidConfig, SmmpConfig};
use warped_online::net::AggregationConfig;

#[derive(Clone, Copy, Debug)]
enum Model {
    Phold,
    Smmp,
    Raid,
    Qnet,
    Logic,
}

#[derive(Clone, Copy, Debug)]
enum Canc {
    Aggressive,
    Lazy,
    Dynamic,
}

#[derive(Clone, Copy, Debug)]
enum Ckpt {
    Fixed(u32),
    Dynamic,
}

#[derive(Clone, Debug)]
struct Config {
    model: Model,
    n_objects: usize,
    n_lps: usize,
    ttl: u32,
    locality: f64,
    seed: u64,
    canc: Canc,
    ckpt: Ckpt,
    aggregation: Option<AggregationConfig>,
}

fn arb_config() -> impl Strategy<Value = Config> {
    (
        prop_oneof![
            Just(Model::Phold),
            Just(Model::Phold), // weight PHOLD higher: it shrinks best
            Just(Model::Smmp),
            Just(Model::Raid),
            Just(Model::Qnet),
            Just(Model::Logic),
        ],
        2usize..16,
        1usize..5,
        10u32..60,
        0.0f64..1.0,
        any::<u64>(),
        prop_oneof![
            Just(Canc::Aggressive),
            Just(Canc::Lazy),
            Just(Canc::Dynamic)
        ],
        prop_oneof![(1u32..9).prop_map(Ckpt::Fixed), Just(Ckpt::Dynamic)],
        prop_oneof![
            Just(None),
            (1u64..40).prop_map(|w| Some(AggregationConfig::Faw {
                window: w as f64 * 1e-4
            })),
            (1u64..40).prop_map(|w| Some(AggregationConfig::saaw(w as f64 * 1e-4))),
        ],
    )
        .prop_map(
            |(model, n_objects, n_lps, ttl, locality, seed, canc, ckpt, aggregation)| Config {
                model,
                n_objects: n_objects.max(n_lps),
                n_lps,
                ttl,
                locality,
                seed,
                canc,
                ckpt,
                aggregation,
            },
        )
}

fn model_spec(c: &Config) -> SimulationSpec {
    match c.model {
        Model::Phold => PholdConfig {
            n_objects: c.n_objects,
            n_lps: c.n_lps,
            population_per_object: 1,
            ttl: c.ttl,
            locality: c.locality,
            ..PholdConfig::new(c.ttl, c.seed)
        }
        .spec(),
        Model::Smmp => SmmpConfig {
            scattered: c.locality < 0.5,
            ..SmmpConfig::small(c.ttl as u64, c.seed)
        }
        .spec(),
        Model::Raid => RaidConfig::small(c.ttl as u64, c.seed).spec(),
        Model::Qnet => QnetConfig {
            n_stations: c.n_objects.max(4),
            n_lps: c.n_lps.min(c.n_objects.max(4)),
            n_jobs: 8,
            ..QnetConfig::new(c.ttl, c.seed)
        }
        .spec(),
        Model::Logic => Netlist::random(
            c.n_objects.max(4),
            3,
            2,
            c.n_lps,
            c.ttl as u64 / 2 + 4,
            c.seed,
        )
        .spec(),
    }
}

fn build_spec(c: &Config) -> SimulationSpec {
    let (canc, ckpt) = (c.canc, c.ckpt);
    let mut spec = model_spec(c)
        .with_gvt_period(None)
        .with_traces()
        .with_policies(Arc::new(move |_| {
            ObjectPolicies::new(
                match canc {
                    Canc::Aggressive => Box::new(FixedCancellation(CancellationMode::Aggressive)),
                    Canc::Lazy => Box::new(FixedCancellation(CancellationMode::Lazy)),
                    Canc::Dynamic => Box::new(DynamicCancellation::dc(8, 0.45, 0.2, 8)),
                },
                match ckpt {
                    Ckpt::Fixed(chi) => Box::new(FixedCheckpoint::new(chi)),
                    Ckpt::Dynamic => Box::new(DynamicCheckpoint::new(1, 16, 16)),
                },
            )
        }));
    if let Some(agg) = &c.aggregation {
        spec = spec.with_aggregation(agg.clone());
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
        .. ProptestConfig::default()
    })]

    /// Sequential ≡ virtual cluster for random workload × configuration.
    #[test]
    fn virtual_commits_the_sequential_history(c in arb_config()) {
        let spec = build_spec(&c);
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        prop_assert_eq!(seq.committed_events, tw.committed_events, "config: {:?}", c);
        prop_assert_eq!(seq.trace_digests(), tw.trace_digests(), "config: {:?}", c);
    }

    /// The virtual cluster is bit-deterministic: equal spec, equal run.
    #[test]
    fn virtual_is_deterministic(c in arb_config()) {
        let spec = build_spec(&c);
        let a = run_virtual(&spec);
        let b = run_virtual(&spec);
        prop_assert_eq!(a.completion_seconds.to_bits(), b.completion_seconds.to_bits());
        prop_assert_eq!(a.committed_events, b.committed_events);
        prop_assert_eq!(a.trace_digests(), b.trace_digests());
        prop_assert_eq!(a.kernel, b.kernel);
    }
}

/// Sequential ≡ threaded with fossil collection on: traces are folded
/// into the digests as fossil collection drops them, so the comparison
/// covers the whole committed history.
#[test]
fn threaded_with_fossil_collection_commits_the_sequential_history() {
    let spec = PholdConfig {
        n_objects: 16,
        population_per_object: 2,
        ..PholdConfig::new(1500, 23)
    }
    .spec()
    .with_gvt_period(Some(0.002))
    .with_traces()
    .with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(FixedCancellation(CancellationMode::Lazy)),
            Box::new(FixedCheckpoint::new(3)),
        )
    }));
    let seq = run_sequential(&spec);
    let tw = run_threaded(&spec);
    assert!(tw.kernel.fossils_collected > 0, "nothing was collected");
    assert_eq!(seq.committed_events, tw.committed_events);
    assert_eq!(seq.trace_digests(), tw.trace_digests());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 50,
        .. ProptestConfig::default()
    })]

    /// Sequential ≡ threaded (fewer cases: real threads are slower).
    #[test]
    fn threaded_commits_the_sequential_history(c in arb_config()) {
        let spec = build_spec(&c);
        let seq = run_sequential(&spec);
        let tw = run_threaded(&spec);
        prop_assert_eq!(seq.committed_events, tw.committed_events, "config: {:?}", c);
        prop_assert_eq!(seq.trace_digests(), tw.trace_digests(), "config: {:?}", c);
    }
}
