//! Microbenchmarks of the kernel's hot paths: queue operations, state
//! snapshots, rollback, the aggregation layer, GVT agents and the SPSC
//! lanes.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;
use warp_core::event::{Event, EventId};
use warp_core::gvt::{GvtController, MatternAgent};
use warp_core::object::{ErasedState, ObjectState};
use warp_core::policy::{CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies};
use warp_core::queues::{InputQueue, StateQueue};
use warp_core::trace::TraceDigest;
use warp_core::{CostModel, LpId, LpRuntime, ObjectId, ObjectRuntime, VirtualTime};
use warp_models::PholdConfig;
use warp_net::{lane_mesh, AggregationConfig, Aggregator, LaneEndpoint};

fn ev(sender: u32, serial: u64, rt: u64) -> Event {
    Event::new(
        EventId {
            sender: ObjectId(sender),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::new(rt),
        1,
        vec![0u8; 48],
    )
}

fn bench_input_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("input_queue");
    g.bench_function("insert_1k_ordered", |b| {
        b.iter_batched(
            InputQueue::new,
            |mut q| {
                for s in 0..1000u64 {
                    q.insert(ev(1, s, s * 3));
                }
                black_box(q.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("insert_1k_interleaved", |b| {
        b.iter_batched(
            InputQueue::new,
            |mut q| {
                // Four senders interleaving timestamps: realistic fan-in.
                for s in 0..250u64 {
                    for sender in 0..4u32 {
                        q.insert(ev(sender, s, (s * 7 + sender as u64 * 13) % 900));
                    }
                }
                black_box(q.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("process_1k", |b| {
        b.iter_batched(
            || {
                let mut q = InputQueue::new();
                for s in 0..1000u64 {
                    q.insert(ev(1, s, s * 3));
                }
                q
            },
            |mut q| {
                while q.next_unprocessed().is_some() {
                    black_box(q.mark_processed().recv_time);
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("straggler_unprocess", |b| {
        b.iter_batched(
            || {
                let mut q = InputQueue::new();
                for s in 0..1000u64 {
                    q.insert(ev(1, s, s * 3));
                }
                while q.next_unprocessed().is_some() {
                    q.mark_processed();
                }
                q
            },
            |mut q| {
                let key = ev(1, 500, 1500).key();
                black_box(q.unprocess_from(key))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

#[derive(Clone, Debug)]
struct BigState {
    tags: Vec<u64>,
}
impl ObjectState for BigState {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.tags.len() * 8
    }
    fn encode(&self, w: &mut warp_core::wire::PayloadWriter) {
        w.u64s(&self.tags);
    }
    fn decode(r: &mut warp_core::wire::PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(BigState { tags: r.u64s()? })
    }
}

fn bench_state_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("state_queue");
    for lines in [64usize, 1024] {
        g.bench_function(format!("snapshot_{}B", lines * 8), |b| {
            let state = BigState {
                tags: vec![7; lines],
            };
            b.iter(|| black_box(ErasedState::copy_of(&state).bytes()));
        });
    }
    g.bench_function("save_restore_cycle", |b| {
        let state = BigState { tags: vec![7; 256] };
        b.iter_batched(
            StateQueue::new,
            |mut q| {
                q.save(None, &state);
                for t in 1..50u64 {
                    let key = ev(0, t, t * 10).key();
                    q.save(Some(key), &state);
                }
                let probe = ev(9, 999, 333).key();
                black_box(q.restore_before(probe).is_some())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Events per iteration of the per-event benches.
const PER_EVENT_BATCH: usize = 1024;

/// A one-object, all-local PHOLD runtime checkpointing every `chi`
/// events, initialized, with the [`PER_EVENT_BATCH`] jobs its `init`
/// sent to itself not yet delivered.
fn phold_object(chi: u32) -> (ObjectRuntime, CostModel, Vec<Event>) {
    let spec = PholdConfig {
        n_objects: 1,
        n_lps: 1,
        population_per_object: PER_EVENT_BATCH,
        ttl: u32::MAX - 1,
        mean_delay: 5000.0,
        locality: 1.0,
        seed: 7,
    }
    .spec();
    let id = ObjectId(0);
    let policies = ObjectPolicies::new(
        Box::new(FixedCancellation(CancellationMode::Aggressive)),
        Box::new(FixedCheckpoint::new(chi)),
    );
    let mut rt = ObjectRuntime::new(id, (spec.objects)(id), policies);
    let mut jobs = Vec::new();
    rt.init(&spec.cost, &mut jobs);
    (rt, spec.cost, jobs)
}

/// The two calls the traced pass of `bench/` charges the kernel's time
/// to (`trace.core.process`, `trace.core.deliver`), one event at a time:
/// `deliver` is the pending-set insert, `process_next` is pop + model +
/// output-queue copy + (every χ-th event) snapshot.
fn bench_per_event(c: &mut Criterion) {
    let mut g = c.benchmark_group("per_event");
    g.bench_function("deliver_1k", |b| {
        b.iter_batched(
            || phold_object(1),
            |(mut rt, cost, jobs)| {
                let mut out = Vec::new();
                for ev in jobs {
                    rt.deliver(ev, &cost, &mut out);
                }
                black_box(rt.next_time())
            },
            BatchSize::SmallInput,
        )
    });
    for chi in [1u32, 16] {
        g.bench_function(format!("process_next_1k_chi{chi}"), |b| {
            b.iter_batched(
                || {
                    let (mut rt, cost, jobs) = phold_object(chi);
                    let mut out = Vec::new();
                    for ev in jobs {
                        rt.deliver(ev, &cost, &mut out);
                    }
                    (rt, cost, Vec::with_capacity(PER_EVENT_BATCH))
                },
                |(mut rt, cost, mut out)| {
                    // The next hops are left undelivered, so exactly the
                    // delivered batch executes.
                    while rt.process_next(&cost, &mut out) {}
                    black_box(out.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The LP scheduler: lowest-timestamp-first choice among `n` objects,
    // in steady state (every object has executed a few events, history is
    // fossil-collected as it goes). What may still grow with `n` is cache
    // footprint, not the choice itself (`docs/hot-path.md` §5;
    // `tests/sched_scaling.rs` guards the ratio).
    g.sample_size(40);
    for n_objects in [2usize, 8, 64, 512, 4096] {
        g.bench_function(format!("process_one_{n_objects}obj"), |b| {
            let mut lp = phold_lp(n_objects);
            drive_lp(&mut lp, 4 * n_objects.max(PER_EVENT_BATCH));
            b.iter(|| {
                drive_lp(&mut lp, PER_EVENT_BATCH);
                black_box(lp.next_time())
            })
        });
    }
    g.finish();
}

/// One LP hosting `n_objects` all-local PHOLD objects under the default
/// policies, 16 jobs pending per object, initialized.
fn phold_lp(n_objects: usize) -> LpRuntime {
    let spec = PholdConfig {
        n_objects,
        n_lps: 1,
        population_per_object: 16,
        ttl: u32::MAX - 1,
        mean_delay: 500.0,
        locality: 1.0,
        seed: 7,
    }
    .spec();
    let mut lp = spec.build_lp(LpId(0));
    lp.init(&mut Vec::new());
    lp
}

/// Execute `events` events on `lp`, with a fossil pass every 256 as an
/// executive would pace them.
fn drive_lp(lp: &mut LpRuntime, events: usize) {
    let mut remote = Vec::new();
    for i in 0..events {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
        if i % 256 == 255 {
            lp.fossil_collect(lp.gvt_contribution());
        }
    }
}

fn bench_aggregator(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation");
    for (name, config) in [
        ("unaggregated", AggregationConfig::Unaggregated),
        ("faw", AggregationConfig::Faw { window: 1e-3 }),
        ("saaw", AggregationConfig::saaw(1e-3)),
    ] {
        g.bench_function(format!("offer_1k_{name}"), |b| {
            b.iter_batched(
                || Aggregator::new(LpId(0), config.clone()),
                |mut agg| {
                    let mut out = Vec::new();
                    for s in 0..1000u64 {
                        agg.offer(
                            LpId(1 + (s % 3) as u32),
                            ev(0, s, s),
                            s as f64 * 1e-5,
                            &mut out,
                        );
                    }
                    agg.flush_all(1.0, &mut out);
                    black_box(out.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// About the size of the threaded executive's `Packet`.
type Parcel = [u64; 8];
const STOP: Parcel = [u64::MAX; 8];

fn recv_parcel(ep: &LaneEndpoint<Parcel>, park: bool) -> Parcel {
    loop {
        let got = if park {
            ep.recv_timeout(Duration::from_millis(50))
        } else {
            ep.try_recv()
        };
        match got {
            Some(p) => return p,
            None => std::hint::spin_loop(),
        }
    }
}

fn bench_lanes(c: &mut Criterion) {
    let mut g = c.benchmark_group("lanes");
    // What the LP loop pays after every executed event when nothing has
    // arrived: 1 000 polls per iteration, so µs/iter reads as ns/poll.
    // A scan of every incoming lane, so it grows with the peers; the
    // number a many-LP workload would have to beat with an O(1) check.
    for peers in [2usize, 16, 64] {
        let ep = lane_mesh::<Parcel>(peers).swap_remove(0);
        g.bench_function(format!("empty_poll_1k_{peers}peers"), |b| {
            b.iter(|| {
                for _ in 0..1000 {
                    black_box(ep.try_recv());
                }
            })
        });
    }
    // The latency the LP loop is built around: two threads bounce one
    // parcel, 500 round trips = 1 000 hops per iteration, so µs/iter
    // reads as ns/hop. `busy` polls `try_recv` (an LP with work to do),
    // `parked` sleeps on the doorbell (an idle LP).
    for (name, park) in [("busy", false), ("parked", true)] {
        let mut eps = lane_mesh::<Parcel>(2);
        let echo = eps.pop().expect("two endpoints");
        let ep = eps.pop().expect("two endpoints");
        let peer = std::thread::spawn(move || loop {
            let p = recv_parcel(&echo, park);
            if p == STOP {
                return;
            }
            echo.send(0, p);
        });
        g.bench_function(format!("ping_pong_hop_1k_{name}"), |b| {
            b.iter(|| {
                for i in 0..500u64 {
                    ep.send(1, [i; 8]);
                    black_box(recv_parcel(&ep, park));
                }
            })
        });
        ep.send(1, STOP);
        peer.join().expect("echo thread panicked");
    }
    g.finish();
}

fn bench_gvt(c: &mut Criterion) {
    c.bench_function("gvt_token_round_8lps", |b| {
        b.iter_batched(
            || {
                (
                    (0..8).map(|_| MatternAgent::new()).collect::<Vec<_>>(),
                    GvtController::new(),
                )
            },
            |(mut agents, mut ctrl)| {
                let mut token = ctrl.start_round();
                for a in agents.iter_mut() {
                    a.on_token(&mut token, VirtualTime::new(100));
                }
                black_box(ctrl.on_return(token).is_ok())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_trace_digest(c: &mut Criterion) {
    c.bench_function("trace_digest_1k_events", |b| {
        let events: Vec<Event> = (0..1000).map(|s| ev(1, s, s)).collect();
        b.iter(|| {
            let mut d = TraceDigest::new();
            for e in &events {
                d.update(e);
            }
            black_box(d.value())
        })
    });
}

criterion_group!(
    benches,
    bench_input_queue,
    bench_state_queue,
    bench_per_event,
    bench_aggregator,
    bench_lanes,
    bench_gvt,
    bench_trace_digest
);
criterion_main!(benches);
