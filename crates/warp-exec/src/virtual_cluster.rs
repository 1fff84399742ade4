//! The virtual-cluster executive: a deterministic discrete-event
//! simulation of the network of workstations the paper ran on.
//!
//! We do not have a 1998 cluster of SPARCstations on shared 10 Mb
//! Ethernet, so we simulate one: each node is a CPU with a real-time
//! clock (f64 seconds); every kernel action — executing an event, saving
//! a state, coasting forward, the protocol-stack cost of each physical
//! message — advances the owning node's clock by the `CostModel`'s
//! charge, and the wire imposes latency plus bandwidth-proportional
//! transit on every physical message. The executive interleaves nodes in
//! global modeled-time order, so the rollback/anti-message dynamics that
//! emerge are exactly the dynamics a real asynchronous cluster with those
//! cost ratios would exhibit — but reproducibly: the same spec always
//! yields the same run, which is what makes strategy comparisons clean.
//!
//! "Execution time" reported for the figures is the completion time of
//! this virtual cluster (max node clock when the last event commits).

use crate::report::{LpSummary, ObjectSummary, RunReport, TimelineSample};
use crate::spec::SimulationSpec;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::{Event, LpRuntime, VirtualTime};
use warp_net::{Aggregator, PhysMsg};

/// Tuning knobs of the virtual executive.
#[derive(Clone, Debug)]
pub struct VirtualOptions {
    /// Hard cap on processed events (runaway guard). The executive
    /// panics if it is exceeded — a simulation that does not terminate is
    /// a bug in the model or the kernel, not a condition to paper over.
    pub max_steps: u64,
    /// Relative CPU speed per node (1.0 = the calibrated SPARC). The
    /// paper's testbed was explicitly *not dedicated*; a speed of 0.5
    /// models a workstation losing half its cycles to background load.
    /// Nodes beyond the vector's length run at 1.0. Speeds must be
    /// positive.
    pub node_speeds: Vec<f64>,
    /// Record a [`crate::report::TimelineSample`] at every GVT round
    /// (requires the spec's GVT period to be set).
    pub collect_timeline: bool,
}

impl Default for VirtualOptions {
    fn default() -> Self {
        VirtualOptions {
            max_steps: 500_000_000,
            node_speeds: Vec::new(),
            collect_timeline: false,
        }
    }
}

impl VirtualOptions {
    /// Uniform speed for every node.
    pub fn with_uniform_speed(n_nodes: usize, speed: f64) -> Self {
        VirtualOptions {
            node_speeds: vec![speed; n_nodes],
            ..Default::default()
        }
    }
}

#[derive(Debug)]
enum VEvent {
    /// A physical message completes its wire transit into an LP's inbox.
    Arrive { dst_lp: usize, msg: PhysMsg },
    /// A node should look for work.
    Wake { node: usize, version: u64 },
    /// Periodic exact-GVT computation + fossil collection.
    GvtTick,
}

struct HeapItem {
    at: f64,
    seq: u64,
    ev: VEvent,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, insertion sequence): deterministic ties.
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Node {
    clock: f64,
    wake_version: u64,
    lps: Vec<usize>,
    /// Relative CPU speed: every CPU charge is divided by this.
    speed: f64,
}

struct Cluster {
    lps: Vec<LpRuntime>,
    aggs: Vec<Aggregator>,
    inbox: Vec<Vec<PhysMsg>>,
    node_of_lp: Vec<usize>,
    nodes: Vec<Node>,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    /// Outstanding Arrive + Wake items (incl. stale wakes): when zero and
    /// no node has work, the simulation has quiesced.
    live: u64,
    steps: u64,
    gvt_rounds: u64,
    cost: warp_core::CostModel,
    partition: std::sync::Arc<warp_core::Partition>,
    /// Scratch: remote-destined events an LP just surfaced, on their way
    /// to its aggregation layer. Empty between uses, capacity reused.
    remote: Vec<Event>,
    /// Scratch: physical messages due for transmission. Likewise.
    due: Vec<PhysMsg>,
}

impl Cluster {
    /// Charge `cpu_seconds` of calibrated CPU work to a node, scaled by
    /// its speed (a loaded workstation takes proportionally longer).
    fn charge(&mut self, node: usize, cpu_seconds: f64) {
        self.nodes[node].clock += cpu_seconds / self.nodes[node].speed;
    }

    fn push(&mut self, at: f64, ev: VEvent) {
        self.seq += 1;
        self.live += 1;
        self.heap.push(HeapItem {
            at,
            seq: self.seq,
            ev,
        });
    }

    fn push_tick(&mut self, at: f64) {
        self.seq += 1;
        self.heap.push(HeapItem {
            at,
            seq: self.seq,
            ev: VEvent::GvtTick,
        });
    }

    fn schedule_wake(&mut self, node: usize, at: f64) {
        let t = at.max(self.nodes[node].clock);
        self.nodes[node].wake_version += 1;
        let version = self.nodes[node].wake_version;
        self.push(t, VEvent::Wake { node, version });
    }

    /// Ship the physical messages in `due` from `lp`, charging the
    /// sender's node clock and scheduling arrivals.
    fn transmit(&mut self, lp: usize) {
        let node = self.node_of_lp[lp];
        let mut due = std::mem::take(&mut self.due);
        for msg in due.drain(..) {
            let send_cost = msg.send_cost(&self.cost);
            self.charge(node, send_cost);
            self.aggs[lp].note_send_cost(send_cost);
            let arrive_at = self.nodes[node].clock + msg.transit_time(&self.cost);
            let dst_lp = msg.dst.index();
            self.push(arrive_at, VEvent::Arrive { dst_lp, msg });
        }
        self.due = due;
    }

    /// Offer the events in `remote` from `lp` to its aggregation layer at
    /// the node's current clock, then transmit whatever became due.
    fn offer_remote(&mut self, lp: usize) {
        if self.remote.is_empty() {
            return;
        }
        let now = self.nodes[self.node_of_lp[lp]].clock;
        for ev in self.remote.drain(..) {
            let dst = self.partition.lp_of(ev.dst);
            debug_assert_ne!(dst.index(), lp, "LP surfaced a local event as remote");
            self.aggs[lp].offer(dst, ev, now, &mut self.due);
        }
        self.transmit(lp);
    }

    fn run_node(&mut self, node_idx: usize, t_wake: f64) {
        let clock = self.nodes[node_idx].clock.max(t_wake);
        self.nodes[node_idx].clock = clock;
        // Borrowed for the step and put back: nothing below reads it
        // through `self.nodes`.
        let lp_list = std::mem::take(&mut self.nodes[node_idx].lps);

        // 1. Ingest every arrived physical message on this node's LPs.
        for &lp in &lp_list {
            if self.inbox[lp].is_empty() {
                continue;
            }
            let mut msgs = std::mem::take(&mut self.inbox[lp]);
            for msg in msgs.drain(..) {
                let recv_cost = msg.recv_cost(&self.cost);
                self.charge(node_idx, recv_cost);
                self.aggs[lp].note_received(&msg, &self.cost);
                self.lps[lp].deliver(msg.events, &mut self.remote);
                let c = self.lps[lp].take_cost();
                self.charge(node_idx, c);
                self.offer_remote(lp);
            }
            self.inbox[lp] = msgs;
        }

        // 2. Flush aggregation buckets that have aged out.
        for &lp in &lp_list {
            let now = self.nodes[node_idx].clock;
            self.aggs[lp].poll(now, &mut self.due);
            self.transmit(lp);
        }

        // 3. Execute one event on the LP holding the earliest timestamp
        //    (the first such LP on a tie). Each `next_time()` is one read
        //    of the LP's schedule index.
        let busiest = lp_list
            .iter()
            .map(|&lp| (self.lps[lp].next_time(), lp))
            .filter(|(t, _)| t.is_finite())
            .min_by_key(|&(t, _)| t);
        if let Some((_, lp)) = busiest {
            let advanced = self.lps[lp].process_one(&mut self.remote);
            debug_assert!(advanced);
            self.steps += 1;
            let c = self.lps[lp].take_cost();
            self.charge(node_idx, c);
            self.offer_remote(lp);
        } else {
            // Whole node idle: decide the fate of held-back lazy sends so
            // GVT can move past them.
            for &lp in &lp_list {
                self.lps[lp].flush_idle(&mut self.remote);
                let c = self.lps[lp].take_cost();
                self.charge(node_idx, c);
                self.offer_remote(lp);
            }
        }

        // 4. Schedule the next look.
        let has_events = lp_list
            .iter()
            .any(|&lp| self.lps[lp].next_time().is_finite());
        // Held-back lazy anti-messages with no event left to regenerate
        // them must still be decided by the idle path above — an LP whose
        // GVT contribution is finite while its event queue is empty is
        // exactly an LP with undecided pendings, so keep the node awake.
        let has_pendings = !has_events
            && lp_list
                .iter()
                .any(|&lp| self.lps[lp].gvt_contribution().is_finite());
        if has_events || has_pendings {
            let t = self.nodes[node_idx].clock;
            self.schedule_wake(node_idx, t);
        } else {
            let deadline = lp_list
                .iter()
                .filter_map(|&lp| self.aggs[lp].next_deadline())
                .min_by(f64::total_cmp);
            if let Some(d) = deadline {
                self.schedule_wake(node_idx, d);
            }
        }
        self.nodes[node_idx].lps = lp_list;
    }

    /// Exact GVT: minimum over LP contributions, buffered aggregates,
    /// inboxed and in-flight physical messages.
    fn compute_gvt(&self) -> VirtualTime {
        let mut g = VirtualTime::INFINITY;
        for lp in &self.lps {
            g = g.min(lp.gvt_contribution());
        }
        for agg in &self.aggs {
            g = g.min(agg.buffered_min_time());
        }
        for msgs in &self.inbox {
            for m in msgs {
                g = g.min(m.min_recv_time());
            }
        }
        for item in self.heap.iter() {
            if let VEvent::Arrive { msg, .. } = &item.ev {
                g = g.min(msg.min_recv_time());
            }
        }
        g
    }
}

/// Run the spec on the virtual cluster with default options.
pub fn run_virtual(spec: &SimulationSpec) -> RunReport {
    run_virtual_with(spec, &VirtualOptions::default())
}

/// Run the spec on the virtual cluster.
pub fn run_virtual_with(spec: &SimulationSpec, opts: &VirtualOptions) -> RunReport {
    run_virtual_inspect(spec, opts, |_| {})
}

/// Run the spec and hand the terminated LP runtimes to `inspect` before
/// the report is assembled — the hook for examining final model state
/// (committed histories, object internals via downcast) in tests and
/// analysis tools.
pub fn run_virtual_inspect(
    spec: &SimulationSpec,
    opts: &VirtualOptions,
    inspect: impl FnOnce(&[LpRuntime]),
) -> RunReport {
    let start = Instant::now();
    let n_lps = spec.partition.n_lps();
    let n_nodes = spec.partition.n_nodes();

    for (i, &sp) in opts.node_speeds.iter().enumerate() {
        assert!(
            sp.is_finite() && sp > 0.0,
            "node {i} speed {sp} must be positive and finite"
        );
    }
    let mut nodes: Vec<Node> = (0..n_nodes)
        .map(|i| Node {
            clock: 0.0,
            wake_version: 0,
            lps: Vec::new(),
            speed: opts.node_speeds.get(i).copied().unwrap_or(1.0),
        })
        .collect();
    let mut node_of_lp = vec![0usize; n_lps];
    for lp in spec.partition.lps() {
        let node = spec.partition.node_of(lp).index();
        nodes[node].lps.push(lp.index());
        node_of_lp[lp.index()] = node;
    }

    let mut cluster = Cluster {
        lps: spec.build_lps(),
        aggs: spec
            .partition
            .lps()
            .map(|lp| {
                let mut agg = Aggregator::new(lp, spec.aggregation.clone());
                agg.set_record_windows(spec.telemetry);
                agg
            })
            .collect(),
        inbox: vec![Vec::new(); n_lps],
        node_of_lp,
        nodes,
        heap: BinaryHeap::new(),
        seq: 0,
        live: 0,
        steps: 0,
        gvt_rounds: 0,
        cost: spec.cost.clone(),
        partition: spec.partition.clone(),
        remote: Vec::new(),
        due: Vec::new(),
    };

    // Init: every LP runs object inits; initial remote events go through
    // the aggregation layer like any other traffic.
    for lp in 0..n_lps {
        cluster.lps[lp].init(&mut cluster.remote);
        let node = cluster.node_of_lp[lp];
        cluster.nodes[node].clock += cluster.lps[lp].take_cost();
        cluster.offer_remote(lp);
    }
    for node in 0..cluster.nodes.len() {
        let t = cluster.nodes[node].clock;
        cluster.schedule_wake(node, t);
    }
    let mut gvt_law = spec.gvt_law.clone();
    if let Some(p) = spec.gvt_period {
        let first = gvt_law.as_ref().map_or(p, |law| law.period());
        cluster.push_tick(first);
    }

    // Main loop.
    let mut timeline: Vec<TimelineSample> = Vec::new();
    let mut recorders: Vec<warp_telemetry::Recorder> = if spec.telemetry {
        (0..n_lps as u32)
            .map(warp_telemetry::Recorder::new)
            .collect()
    } else {
        Vec::new()
    };
    let debug_trace = std::env::var("WARP_DEBUG_VIRTUAL").is_ok();
    let mut pops: u64 = 0;
    while let Some(HeapItem { at, ev, .. }) = cluster.heap.pop() {
        pops += 1;
        if debug_trace && pops.is_multiple_of(1_000_000) {
            eprintln!(
                "[virt] pops={} steps={} live={} heap={} t={:.6} gvt={} clocks={:?}",
                pops,
                cluster.steps,
                cluster.live,
                cluster.heap.len(),
                at,
                cluster.compute_gvt(),
                cluster.nodes.iter().map(|n| n.clock).collect::<Vec<_>>()
            );
        }
        match ev {
            VEvent::Arrive { dst_lp, msg } => {
                cluster.live -= 1;
                cluster.inbox[dst_lp].push(msg);
                cluster.schedule_wake(cluster.node_of_lp[dst_lp], at);
            }
            VEvent::Wake { node, version } => {
                cluster.live -= 1;
                if version != cluster.nodes[node].wake_version {
                    continue; // superseded
                }
                cluster.run_node(node, at);
                assert!(
                    cluster.steps <= opts.max_steps,
                    "virtual executive exceeded {} steps — runaway simulation",
                    opts.max_steps
                );
            }
            VEvent::GvtTick => {
                cluster.gvt_rounds += 1;
                let g = cluster.compute_gvt();
                if opts.collect_timeline {
                    timeline.push(TimelineSample {
                        at,
                        gvt: if g.is_finite() { Some(g.ticks()) } else { None },
                        lp_fronts: cluster
                            .lps
                            .iter()
                            .map(|lp| lp.lvt_front().ticks())
                            .collect(),
                        rollbacks: cluster.lps.iter().map(|lp| lp.stats().rollbacks()).sum(),
                        retained: cluster.lps.iter().map(|lp| lp.history_items() as u64).sum(),
                    });
                }
                // Telemetry sampling precedes fossil collection so the
                // retained gauge shows the pressure this round relieves.
                for (i, rec) in recorders.iter_mut().enumerate() {
                    rec.observe_lp(g, &mut cluster.lps[i]);
                    for (dst, old, new) in cluster.aggs[i].take_window_changes() {
                        rec.window_change(g, dst.0, old, new);
                    }
                }
                if g.is_infinite() && cluster.live == 0 {
                    break;
                }
                let mut reclaimed = 0u64;
                if g.is_finite() {
                    let before: u64 = cluster
                        .lps
                        .iter()
                        .map(|lp| lp.stats().fossils_collected)
                        .sum();
                    for lp in &mut cluster.lps {
                        lp.fossil_collect(g);
                    }
                    let after: u64 = cluster
                        .lps
                        .iter()
                        .map(|lp| lp.stats().fossils_collected)
                        .sum();
                    reclaimed = after - before;
                    for node in &mut cluster.nodes {
                        node.clock += cluster.cost.gvt_round / node.speed;
                    }
                }
                // Pace the next round off the busiest node's clock, not
                // the global event axis: GVT work consumes node CPU, so a
                // tick cadence faster than the clocks advance would recede
                // from the work it charges for (and never terminate).
                let period = match gvt_law.as_mut() {
                    Some(law) => {
                        let retained: usize = cluster.lps.iter().map(|lp| lp.history_items()).sum();
                        law.on_round(reclaimed, retained as u64, spec.partition.n_objects())
                    }
                    None => spec.gvt_period.expect("tick without period"),
                };
                let busiest_clock = cluster.nodes.iter().map(|n| n.clock).fold(at, f64::max);
                cluster.push_tick(busiest_clock + period);
            }
        }
    }

    inspect(&cluster.lps);

    // Completion: the cluster finished when its busiest node did.
    let completion = cluster
        .nodes
        .iter()
        .map(|n| n.clock)
        .fold(0.0_f64, f64::max);
    let wall = start.elapsed().as_secs_f64();

    if let Ok(name) = std::env::var("WARP_DUMP_HISTORY") {
        for lp in &cluster.lps {
            for o in lp.objects() {
                if o.object_name() == name {
                    eprintln!("[virt-history] {name}:");
                    for ev in o.committed_history() {
                        eprintln!(
                            "  t={} from={} serial={} kind={} payload={:02x?}",
                            ev.recv_time, ev.id.sender, ev.id.serial, ev.kind, ev.payload
                        );
                    }
                }
            }
        }
    }

    let mut kernel = ObjectStats::default();
    let mut comm = CommStats::default();
    let mut per_lp = Vec::with_capacity(n_lps);
    let mut committed = 0u64;
    for (i, lp) in cluster.lps.iter().enumerate() {
        let ks = lp.stats();
        committed += ks.net_executed();
        kernel.merge(&ks);
        let cs = cluster.aggs[i].stats().clone();
        comm.merge(&cs);
        let objects = lp
            .objects()
            .iter()
            .map(|o| ObjectSummary {
                id: o.id().0,
                name: o.object_name(),
                final_mode: format!("{:?}", o.cancellation_mode()),
                final_chi: o.checkpoint_interval(),
                committed: o.stats().net_executed(),
                stats: o.stats().clone(),
                trace_digest: if spec.collect_traces {
                    Some(o.trace_digest().value())
                } else {
                    None
                },
            })
            .collect();
        per_lp.push(LpSummary {
            lp: lp.id().0,
            kernel: ks,
            comm: cs,
            objects,
        });
    }

    RunReport {
        timeline,
        executive: "virtual".into(),
        completion_seconds: completion,
        wall_seconds: wall,
        committed_events: committed,
        events_per_second: if completion > 0.0 {
            committed as f64 / completion
        } else {
            0.0
        },
        gvt_rounds: cluster.gvt_rounds,
        kernel,
        comm,
        per_lp,
        recoveries: 0,
        migrations: Vec::new(),
        scales: Vec::new(),
        telemetry: crate::threaded::merge_telemetry(
            recorders.into_iter().map(warp_telemetry::Recorder::finish),
        ),
        resume: Default::default(),
    }
}
