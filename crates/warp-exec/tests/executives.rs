//! Cross-executive equivalence: the optimistic executives must commit,
//! per object, exactly the history the sequential golden model executes —
//! whatever the configuration (cancellation strategy, checkpoint
//! interval, aggregation policy, fossil collection).

use std::sync::Arc;
use warp_control::{DynamicCancellation, DynamicCheckpoint};
use warp_core::policy::{CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies};
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{
    CostModel, ErasedState, Event, ExecutionContext, ObjectId, ObjectState, Partition, SimObject,
};
use warp_exec::{run_sequential, run_threaded, run_virtual, SimulationSpec};
use warp_net::AggregationConfig;

/// A relay workload: tokens hop between objects with random (state-seeded)
/// delays and destinations; each hop decrements a TTL. One send per event,
/// so committed histories are stable across executives by construction.
#[derive(Clone, Debug)]
struct RelayState {
    rng: SimRng,
    received: u64,
}
impl ObjectState for RelayState {}

struct Relay {
    me: u32,
    n_objects: u32,
    starters: u32,
    hops: u32,
    mean_delay: f64,
    state: RelayState,
}

impl Relay {
    fn forward(&mut self, ctx: &mut dyn ExecutionContext, ttl: u32) {
        if ttl == 0 {
            return;
        }
        let dst = self.state.rng.below(self.n_objects as u64) as u32;
        let delay = self.state.rng.exp_ticks(self.mean_delay);
        let mut w = PayloadWriter::new();
        w.u32(ttl - 1);
        ctx.send(ObjectId(dst), delay, 1, w.finish());
    }
}

impl SimObject for Relay {
    fn name(&self) -> String {
        format!("relay-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        if self.me < self.starters {
            self.forward(ctx, self.hops + 1);
        }
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        self.state.received += 1;
        let ttl = PayloadReader::new(&ev.payload)
            .u32()
            .expect("relay payload");
        self.forward(ctx, ttl);
    }
    fn snapshot(&self) -> ErasedState {
        ErasedState::of(self.state.clone())
    }
    fn restore(&mut self, snapshot: &ErasedState) {
        self.state = snapshot.get::<RelayState>().clone();
    }
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<RelayState>()
    }
}

fn relay_spec(seed: u64, n_objects: u32, n_lps: usize, starters: u32, hops: u32) -> SimulationSpec {
    let partition = Partition::round_robin(n_objects as usize, n_lps);
    SimulationSpec::new(
        partition,
        Arc::new(move |id: ObjectId| {
            Box::new(Relay {
                me: id.0,
                n_objects,
                starters,
                hops,
                mean_delay: 40.0,
                state: RelayState {
                    rng: SimRng::derive(seed, id.0 as u64),
                    received: 0,
                },
            }) as Box<dyn SimObject>
        }),
    )
    .with_cost(CostModel::uniform_unit())
    .with_gvt_period(None)
    .with_traces()
}

fn assert_same_traces(a: &warp_exec::RunReport, b: &warp_exec::RunReport) {
    assert_eq!(
        a.committed_events, b.committed_events,
        "{} vs {}",
        a.executive, b.executive
    );
    let ta = a.trace_digests();
    let tb = b.trace_digests();
    assert_eq!(ta.len(), tb.len());
    for ((ida, da), (idb, db)) in ta.iter().zip(tb.iter()) {
        assert_eq!(ida, idb);
        assert_eq!(
            da, db,
            "object {ida} committed a different history ({} vs {})",
            a.executive, b.executive
        );
    }
}

#[test]
fn virtual_matches_sequential_aggressive() {
    let spec = relay_spec(1, 12, 3, 6, 120);
    let seq = run_sequential(&spec);
    let tw = run_virtual(&spec);
    assert!(
        seq.committed_events > 500,
        "workload too small to be meaningful"
    );
    assert_same_traces(&seq, &tw);
    assert!(
        tw.kernel.rollbacks() > 0,
        "workload never exercised rollback"
    );
}

#[test]
fn virtual_matches_sequential_lazy() {
    let spec = relay_spec(2, 12, 3, 6, 120).with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(FixedCancellation(CancellationMode::Lazy)),
            Box::new(FixedCheckpoint::new(4)),
        )
    }));
    let seq = run_sequential(&spec);
    let tw = run_virtual(&spec);
    assert_same_traces(&seq, &tw);
    assert!(tw.kernel.rollbacks() > 0);
}

#[test]
fn virtual_matches_sequential_with_aggregation() {
    for config in [
        AggregationConfig::Faw { window: 2e-3 },
        AggregationConfig::saaw(1e-3),
    ] {
        let spec = relay_spec(3, 12, 4, 8, 100).with_aggregation(config.clone());
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        assert_same_traces(&seq, &tw);
        assert!(
            tw.comm.aggregation_ratio() > 1.0,
            "{:?} never aggregated anything",
            config
        );
    }
}

#[test]
fn virtual_matches_sequential_with_dynamic_policies() {
    let spec = relay_spec(4, 10, 2, 5, 150).with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
            Box::new(DynamicCheckpoint::new(1, 32, 32)),
        )
    }));
    let seq = run_sequential(&spec);
    let tw = run_virtual(&spec);
    assert_same_traces(&seq, &tw);
}

#[test]
fn virtual_is_deterministic() {
    let spec = relay_spec(5, 12, 3, 6, 100).with_aggregation(AggregationConfig::saaw(1e-3));
    let a = run_virtual(&spec);
    let b = run_virtual(&spec);
    assert_eq!(a.committed_events, b.committed_events);
    assert_eq!(
        a.completion_seconds, b.completion_seconds,
        "modeled time must be bit-equal"
    );
    assert_eq!(a.kernel, b.kernel);
    assert_eq!(a.trace_digests(), b.trace_digests());
    assert_eq!(a.comm.phys_sent, b.comm.phys_sent);
}

#[test]
fn fossil_collection_preserves_results() {
    let base = relay_spec(6, 12, 3, 6, 100);
    let no_fossil = run_virtual(&base);
    // Same run with GVT + fossil collection on: committed counts must
    // match (trace digests are unavailable once history is reclaimed).
    let fossil = run_virtual(&base.clone().with_gvt_period(Some(0.02)));
    assert_eq!(no_fossil.committed_events, fossil.committed_events);
    assert!(fossil.gvt_rounds > 0, "GVT never ran");
    assert!(fossil.kernel.fossils_collected > 0, "nothing was reclaimed");
}

#[test]
fn threaded_matches_sequential() {
    let spec = relay_spec(7, 8, 2, 4, 80);
    let seq = run_sequential(&spec);
    let tw = run_threaded(&spec);
    assert_same_traces(&seq, &tw);
}

#[test]
fn threaded_matches_sequential_lazy_with_aggregation() {
    let spec = relay_spec(8, 8, 4, 6, 60)
        .with_policies(Arc::new(|_| {
            ObjectPolicies::new(
                Box::new(FixedCancellation(CancellationMode::Lazy)),
                Box::new(FixedCheckpoint::new(3)),
            )
        }))
        .with_aggregation(AggregationConfig::Faw { window: 0.5e-3 });
    let seq = run_sequential(&spec);
    let tw = run_threaded(&spec);
    assert_same_traces(&seq, &tw);
}

#[test]
fn threaded_with_fossils_terminates_and_commits() {
    let spec = relay_spec(9, 8, 3, 4, 60);
    let seq = run_sequential(&spec);
    let tw = run_threaded(&spec.clone().with_gvt_period(Some(0.002)));
    assert_eq!(seq.committed_events, tw.committed_events);
    assert!(tw.gvt_rounds > 0);
}

#[test]
fn single_lp_virtual_and_threaded() {
    let spec = relay_spec(10, 6, 1, 3, 50);
    let seq = run_sequential(&spec);
    let v = run_virtual(&spec);
    let t = run_threaded(&spec);
    assert_same_traces(&seq, &v);
    assert_same_traces(&seq, &t);
    assert_eq!(
        v.kernel.rollbacks(),
        0,
        "single LP: everything is local and in order"
    );
}

#[test]
fn reports_carry_configuration_details() {
    let spec = relay_spec(11, 6, 2, 3, 40).with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(8, 0.45, 0.2, 8)),
            Box::new(DynamicCheckpoint::new(1, 16, 16)),
        )
    }));
    let tw = run_virtual(&spec);
    for lp in &tw.per_lp {
        for o in &lp.objects {
            assert!(o.final_chi >= 1);
            assert!(o.final_mode == "Aggressive" || o.final_mode == "Lazy");
            assert!(o.name.starts_with("relay-"));
        }
    }
    let json = serde_json::to_string(&tw).unwrap();
    assert!(json.contains("phys_sent"));
}

// ---------------------------------------------------------------------
// Telemetry: observation must never perturb the run, and the recorded
// control trajectory must be the controller's actual decision sequence.
// ---------------------------------------------------------------------

/// A fully-adaptive spec with telemetry-worthy dynamics: dynamic
/// cancellation plus a hill-climbing checkpoint tuner. GVT rounds still
/// happen (the token ring always circulates) but fossil collection
/// stays off so committed-trace digests remain comparable.
fn adaptive_spec(seed: u64) -> SimulationSpec {
    relay_spec(seed, 12, 3, 6, 150).with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
            Box::new(DynamicCheckpoint::with_rule(
                1,
                32,
                32,
                warp_control::AdaptRule::HillClimb,
            )),
        )
    }))
}

#[test]
fn telemetry_is_observational_and_records_the_run() {
    let base = adaptive_spec(21);
    let seq = run_sequential(&base);
    let plain = run_threaded(&base);
    let observed = run_threaded(&base.clone().with_telemetry());

    // Observation must not change what gets committed.
    assert_same_traces(&seq, &plain);
    assert_same_traces(&seq, &observed);
    assert!(plain.telemetry.is_none(), "telemetry off => no report");

    let telem = observed.telemetry.expect("telemetry on => report present");
    assert!(!telem.samples.is_empty(), "GVT rounds must produce samples");
    assert_eq!(telem.dropped_samples, 0, "run too small to overflow rings");

    // Per-LP counter deltas must add back up to the cumulative totals
    // the summaries report — sampling is lossless bookkeeping.
    let sampled_executed: u64 = telem.samples.iter().map(|s| s.executed).sum();
    assert_eq!(
        sampled_executed, observed.kernel.executed,
        "sample deltas must sum to the kernel's executed total"
    );
}

#[test]
fn recorded_chi_trajectory_replays_through_a_fresh_tuner() {
    use std::collections::BTreeMap;
    use warp_core::policy::CheckpointTuner;
    use warp_telemetry::{ControlEvent, Param};

    let report = run_threaded(&adaptive_spec(22).with_telemetry());
    let telem = report.telemetry.expect("telemetry enabled");
    let mut by_object: BTreeMap<u32, Vec<&ControlEvent>> = BTreeMap::new();
    for ev in telem.events.iter().filter(|e| e.param == Param::Chi) {
        by_object.entry(ev.object).or_default().push(ev);
    }
    assert!(
        !by_object.is_empty(),
        "the hill-climber was never invoked — workload too small"
    );

    for (object, events) in by_object {
        // The trajectory is a chain: each step starts where the last
        // ended, beginning at the configured χ₀.
        assert_eq!(events[0].old, 1.0, "object {object} must start at χ₀");
        for w in events.windows(2) {
            assert_eq!(
                w[1].old, w[0].new,
                "object {object}: χ trajectory has a gap"
            );
        }
        // Replaying the recorded cost samples through a *fresh* tuner of
        // the same configuration must reproduce the recorded decisions:
        // the trace captures everything the controller acted on.
        let mut replay =
            DynamicCheckpoint::with_rule(1, 32, 32, warp_control::AdaptRule::HillClimb);
        for ev in events {
            let chi = replay
                .invoke(ev.sampled_o, 0.0)
                .expect("dynamic tuner always yields an interval");
            assert_eq!(
                chi as f64, ev.new,
                "object {object}: replay diverged from the recorded trajectory at gvt {:?}",
                ev.gvt
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden pins: the on-line virtual run is deterministic down to the last
// bit of its modeled clock. The clock is a float sum whose order follows
// the LP scheduler's choices (which object runs on a timestamp tie) and
// `LpRuntime::take_cost`'s slot order, so a scheduler that breaks a tie
// differently or drains costs in another order moves these numbers long
// before it moves a digest.
// ---------------------------------------------------------------------

/// The paper's on-line policy set, as the repository benchmark runs it
/// (`bench/src/workloads.rs::online`).
fn online(spec: SimulationSpec) -> SimulationSpec {
    spec.with_policies(Arc::new(|_| {
        ObjectPolicies::new(
            Box::new(DynamicCancellation::dc(16, 0.45, 0.2, 16)),
            Box::new(DynamicCheckpoint::new(1, 64, 64)),
        )
    }))
    .with_aggregation(AggregationConfig::saaw(1e-3))
}

/// Every integer counter of the merged kernel statistics, in declaration
/// order.
fn counters(s: &warp_core::ObjectStats) -> [u64; 17] {
    [
        s.executed,
        s.coasted,
        s.rolled_back,
        s.straggler_rollbacks,
        s.anti_rollbacks,
        s.states_saved,
        s.states_restored,
        s.sent,
        s.anti_sent,
        s.annihilated,
        s.lazy_hits,
        s.lazy_misses,
        s.monitor_hits,
        s.monitor_misses,
        s.strategy_switches,
        s.interval_adjustments,
        s.fossils_collected,
    ]
}

#[test]
fn online_virtual_runs_are_pinned_to_the_bit() {
    use warp_models::{RaidConfig, ServeConfig, SmmpConfig};
    // Captured at the commit before the LP scheduler index went in.
    let pins: [(&str, SimulationSpec, u64, [u64; 17]); 3] = [
        (
            "smmp",
            SmmpConfig::small(150, 11).spec(),
            0x3fd001153b14d9bc,
            [
                3228, 35, 1302, 53, 31, 1420, 84, 2110, 184, 184, 1133, 0, 128, 1, 8, 45, 4231,
            ],
        ),
        (
            "raid",
            RaidConfig::small(60, 11).spec(),
            0x3fdb5e60ed7d2b06,
            [
                1655, 9, 695, 41, 6, 1055, 47, 1271, 311, 311, 804, 0, 124, 10, 8, 20, 1723,
            ],
        ),
        (
            "serve",
            ServeConfig::small(11).spec(),
            0x3ff4d7d10589930f,
            [
                20333, 1009, 9054, 455, 176, 5537, 631, 14975, 3696, 3696, 1278, 628, 676, 1461,
                32, 307, 25002,
            ],
        ),
    ];
    for (name, spec, completion_bits, kernel) in pins {
        let r = run_virtual(&online(spec));
        assert_eq!(
            r.completion_seconds.to_bits(),
            completion_bits,
            "{name}: modeled completion moved ({} s)",
            r.completion_seconds
        );
        assert_eq!(counters(&r.kernel), kernel, "{name}: kernel counters moved");
    }
}
