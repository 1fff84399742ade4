//! Recovery images for every model family: each state type's codec, and
//! a restore from a mid-run image that commits the sequential history.
//!
//! The distributed executive restores every resumed LP from its image of
//! the last checkpoint horizon. Here a single thread plays the whole
//! cluster: the LPs of a spec run in global timestamp order (so nothing
//! ever rolls back and GVT is the earliest pending event), every LP is
//! imaged at a mid-run GVT just before its fossil pass, and a fresh set
//! of LPs restored from the images runs to the end. RAID and logic are
//! covered here although the benchmark never runs them.

use warp_core::{Event, LpRuntime, VirtualTime};
use warp_exec::{run_sequential, SimulationSpec};
use warp_models::{Netlist, PholdConfig, QnetConfig, RaidConfig, ServeConfig, SmmpConfig};

/// Every family, small, with traces on.
fn families() -> Vec<(&'static str, SimulationSpec)> {
    let serve = ServeConfig {
        horizon_us: 40_000,
        ..ServeConfig::small(5)
    };
    [
        ("phold", PholdConfig::new(40, 3).spec()),
        ("smmp", SmmpConfig::small(30, 4).spec()),
        ("qnet", QnetConfig::new(30, 6).spec()),
        ("serve", serve.spec()),
        ("raid", RaidConfig::small(20, 7).spec()),
        ("logic", Netlist::random(6, 4, 3, 2, 40, 8).spec()),
    ]
    .into_iter()
    .map(|(name, spec)| (name, spec.with_traces()))
    .collect()
}

/// Deliver `events` to their LPs.
fn route(spec: &SimulationSpec, lps: &mut [LpRuntime], events: Vec<Event>) {
    let mut out = Vec::new();
    for ev in events {
        let lp = spec.partition.lp_of(ev.dst).index();
        lps[lp].deliver(vec![ev], &mut out);
    }
    assert!(out.is_empty(), "a delivery in timestamp order rolled back");
}

/// GVT of the single-threaded cluster: nothing is ever in flight.
fn gvt(lps: &[LpRuntime]) -> VirtualTime {
    lps.iter()
        .map(LpRuntime::gvt_contribution)
        .fold(VirtualTime::INFINITY, VirtualTime::min)
}

/// Run the LP with the earliest next event, `steps` times or until idle.
fn run(spec: &SimulationSpec, lps: &mut [LpRuntime], steps: usize) {
    let mut out = Vec::new();
    for _ in 0..steps {
        let Some(next) = (0..lps.len())
            .filter(|&i| lps[i].next_time().is_finite())
            .min_by_key(|&i| lps[i].next_time())
        else {
            return;
        };
        lps[next].process_one(&mut out);
        let sent = std::mem::take(&mut out);
        route(spec, lps, sent);
    }
}

fn digests(lps: &[LpRuntime]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = lps
        .iter()
        .flat_map(|lp| lp.objects())
        .map(|o| (o.id().0, o.trace_digest().value()))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn every_family_round_trips_its_images_and_restores_the_sequential_history() {
    for (name, spec) in families() {
        let want = run_sequential(&spec);
        let committed = want.committed_events as usize;
        assert!(committed > 100, "{name}: only {committed} events");

        let mut lps: Vec<LpRuntime> = spec.partition.lps().map(|lp| spec.build_lp(lp)).collect();
        let mut out = Vec::new();
        for lp in &mut lps {
            lp.init(&mut out);
            lp.arm_recovery();
        }
        route(&spec, &mut lps, std::mem::take(&mut out));
        run(&spec, &mut lps, committed / 2);
        let h = gvt(&lps);
        assert!(
            h.is_finite() && h > VirtualTime::ZERO,
            "{name}: no mid-run horizon"
        );
        let images: Vec<Vec<u8>> = lps.iter().map(|lp| lp.checkpoint(h)).collect();
        for lp in &mut lps {
            lp.fossil_collect(h);
        }
        // The original run goes on to the end: the images must not
        // depend on what it does next.
        run(&spec, &mut lps, usize::MAX);
        assert_eq!(
            digests(&lps),
            want.trace_digests(),
            "{name}: the imaged run diverged"
        );

        let mut restored: Vec<LpRuntime> =
            spec.partition.lps().map(|lp| spec.build_lp(lp)).collect();
        for (lp, bytes) in restored.iter_mut().zip(&images) {
            lp.arm_recovery();
            let image = lp
                .decode_image(bytes)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&image.encode(), bytes, "{name}: encode → decode → encode");
            lp.restore(image, &mut out);
        }
        route(&spec, &mut restored, std::mem::take(&mut out));
        run(&spec, &mut restored, usize::MAX);
        assert_eq!(
            digests(&restored),
            want.trace_digests(),
            "{name}: the run restored at {h} diverged from the sequential history"
        );
        let net: u64 = restored.iter().map(|lp| lp.stats().net_executed()).sum();
        assert_eq!(net, want.committed_events, "{name}: committed count");
    }
}
