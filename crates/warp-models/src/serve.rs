//! SERVE: an open-arrival service-traffic workload.
//!
//! Every other model in this crate is a closed population seeded at
//! t=0 with near-uniform load, so the on-line controllers (balance,
//! elastic) only ever fired from artificial `--slow` handicaps. SERVE
//! is the first workload whose *modeled* traffic drives them: an open
//! arrival process with a diurnal rate curve, configurable burst
//! waves, and Zipf hot-key skew over tenants, feeding batched service
//! stations whose shared-state cache makes service time depend on
//! admission history.
//!
//! The pipeline, in virtual microseconds:
//!
//! * **Sources** draw a candidate stream by thinning (Lewis–Shedler)
//!   against a piecewise-constant envelope of the diurnal×burst rate.
//!   Millions of simulated users exist only as ids drawn per-arrival —
//!   no per-user state. All randomness lives in rollback-managed
//!   object state ([`SimRng`]), so re-execution reproduces the stream.
//! * **Routers** forward each request to the station owning its tenant
//!   (`tenant % n_stations`) — the affinity that turns tenant skew
//!   into station skew, and station skew into LP/worker imbalance.
//! * **Stations** model a GPU replica: an admission queue drained in
//!   batches every `batch_window_us`, per-batch service time growing
//!   *sublinearly* with batch size, and a KV-cache of `kv_slots`
//!   resident tenants. A batch may reload at most
//!   `max_reloads_per_batch` missing tenants (evicting LRU residents);
//!   requests beyond that budget are re-queued. Each batch also runs a
//!   chain of decode-step self-events, so a hot station is dense in
//!   events per virtual microsecond — which is exactly what makes its
//!   LP's LVT lag and the controllers react. Queue state (`busy_until`,
//!   the cache, the backlog) makes regenerated sends rarely match
//!   prematurely sent ones: a rollback-rich, state-dependent
//!   temperament distinct from SMMP (lazy), QNET (aggressive) and RAID
//!   (mixed).
//! * **Sinks** accumulate end-to-end latency histograms into committed
//!   state, so trace digests capture end-to-end behavior.
//!
//! Placement interleaves the roles round-robin over the LPs, so every
//! LP carries sources, routers, stations and sinks and advances in one
//! unified virtual-time order; per-LP load differences then come from
//! *which stations* an LP hosts. Hot tenants are low-numbered, so the
//! burst concentrates on low-numbered LPs — the ones the contiguous
//! worker assignment gives to worker 1.

use crate::util::clone_field_wise;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{
    DynState, Event, ExecutionContext, LpId, NodeId, ObjectId, ObjectState, Partition, Payload,
    SimObject, VirtualTime,
};
use warp_exec::SimulationSpec;

/// Source self-event: the next thinning candidate (accepted or not).
pub const K_CANDIDATE: u16 = 40;
/// Source → router: an accepted request.
pub const K_REQ: u16 = 41;
/// Router → station: a routed request.
pub const K_DISPATCH: u16 = 42;
/// Station self-event: the batch window closes.
pub const K_BATCH: u16 = 43;
/// Station self-event: one decode step of an in-flight batch.
pub const K_TICK: u16 = 44;
/// Station → sink: a completed request.
pub const K_DONE: u16 = 45;

/// A burst wave: the arrival rate is multiplied by `mult` over
/// `[start_us, end_us)`. A `hot` wave also switches tenant choice to
/// the hot (`burst_zipf_s`) skew; a non-hot wave is a plain traffic
/// plateau (evening load, say) that raises the rate but keeps routing
/// uniform.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BurstWave {
    /// Wave start (inclusive), µs.
    pub start_us: u64,
    /// Wave end (exclusive), µs.
    pub end_us: u64,
    /// Rate multiplier over the window.
    pub mult: f64,
    /// Whether the wave's traffic is hot-tenant skewed.
    pub hot: bool,
}

/// SERVE configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Open-arrival source objects.
    pub n_sources: usize,
    /// Router objects (requests routed by `user % n_routers`).
    pub n_routers: usize,
    /// Batched service stations (tenant affinity `tenant % n_stations`).
    pub n_stations: usize,
    /// Latency-histogram sinks (`user % n_sinks`).
    pub n_sinks: usize,
    /// Logical processes; every role is spread round-robin over all of
    /// them, so station `i` lives on LP `i % n_lps`.
    pub n_lps: usize,
    /// Simulated user population (ids only — no per-user state).
    pub n_users: u64,
    /// Tenants (the routing key; Zipf-skewed under bursts).
    pub n_tenants: usize,
    /// Zipf exponent for tenant choice outside bursts (≈0 = uniform).
    pub zipf_s: f64,
    /// Zipf exponent during bursts (hot-key skew).
    pub burst_zipf_s: f64,
    /// Mean inter-arrival per source at the diurnal midpoint, µs.
    pub base_interarrival_us: f64,
    /// Diurnal modulation amplitude in `[0, 1)`:
    /// `rate(t) = base·(1 + amp·sin(2πt/day))·burst_mult(t)`.
    pub diurnal_amp: f64,
    /// Diurnal period, µs.
    pub day_us: u64,
    /// Burst waves (each multiplies the rate over its window).
    pub bursts: Vec<BurstWave>,
    /// Arrivals stop at this virtual time, µs.
    pub horizon_us: u64,
    /// Source → router delay, µs.
    pub route_delay_us: u64,
    /// Router → station delay, µs.
    pub dispatch_delay_us: u64,
    /// Station batch window: queue drains this long after the first
    /// enqueue, µs.
    pub batch_window_us: u64,
    /// Max requests per batch.
    pub max_batch: usize,
    /// Fixed per-batch service overhead, µs.
    pub service_base_us: u64,
    /// Marginal service cost coefficient, µs: a batch of `b` costs
    /// `service_base + service_per_item·b^batch_exponent` (+ reloads).
    pub service_per_item_us: f64,
    /// Sublinearity of batch service time (e.g. 0.7).
    pub batch_exponent: f64,
    /// Uniform extra service jitter in `[0, service_jitter_us]`, µs.
    pub service_jitter_us: u64,
    /// Decode-step self-events per batch (hot-LP event density).
    pub decode_steps: u32,
    /// KV-cache capacity: tenants resident at a station.
    pub kv_slots: usize,
    /// Service-time penalty per tenant load into the KV cache, µs.
    pub reload_us: u64,
    /// Evictions allowed per batch (the first request is exempt);
    /// requests beyond the budget are re-queued.
    pub max_reloads_per_batch: usize,
    /// Station → sink delay, µs.
    pub sink_delay_us: u64,
    /// Workload seed.
    pub seed: u64,
}

impl ServeConfig {
    /// A small cluster for digest tests: 16 objects over 4 LPs, one
    /// mid-run burst, ≈10k committed events.
    pub fn small(seed: u64) -> Self {
        ServeConfig {
            n_sources: 4,
            n_routers: 2,
            n_stations: 8,
            n_sinks: 2,
            n_lps: 4,
            n_users: 2_000_000,
            n_tenants: 32,
            zipf_s: 0.4,
            burst_zipf_s: 1.4,
            base_interarrival_us: 600.0,
            diurnal_amp: 0.4,
            day_us: 120_000,
            bursts: vec![BurstWave {
                start_us: 50_000,
                end_us: 110_000,
                mult: 3.0,
                hot: true,
            }],
            horizon_us: 160_000,
            route_delay_us: 25,
            dispatch_delay_us: 30,
            batch_window_us: 250,
            max_batch: 8,
            service_base_us: 50,
            service_per_item_us: 60.0,
            batch_exponent: 0.7,
            service_jitter_us: 20,
            decode_steps: 3,
            // 32 tenants over 8 stations is 4 residents per station;
            // two slots short forces eviction churn and, in burst-fat
            // batches, reload-budget re-queues.
            kv_slots: 2,
            reload_us: 90,
            max_reloads_per_batch: 1,
            sink_delay_us: 40,
            seed,
        }
    }

    /// The diurnal-wave scenario the controller experiments run: 36
    /// objects over 6 LPs, a 4× burst spanning the middle of the day
    /// with hot-tenant skew, and a long post-wave tail so scale-in has
    /// time to fire. The layout is deliberately symmetric — every LP
    /// hosts exactly one source, one router, three stations and one
    /// sink — so steady-state leads are flat and the *only* source of
    /// imbalance is the wave's tenant skew. ≈150k committed events.
    pub fn wave(seed: u64) -> Self {
        ServeConfig {
            n_sources: 6,
            n_routers: 6,
            n_stations: 18,
            n_sinks: 6,
            n_lps: 6,
            n_users: 10_000_000,
            n_tenants: 64,
            zipf_s: 0.2,
            burst_zipf_s: 1.5,
            base_interarrival_us: 500.0,
            diurnal_amp: 0.25,
            day_us: 600_000,
            bursts: vec![
                // The hot wave: 4× traffic, skewed onto the low
                // tenants — the controllers' cue to act.
                BurstWave {
                    start_us: 150_000,
                    end_us: 600_000,
                    mult: 4.0,
                    hot: true,
                },
                // The evening plateau: elevated but *uniform* traffic
                // after the wave, dense enough in events that the
                // cool-down spans many controller rounds — the
                // scale-in window.
                BurstWave {
                    start_us: 650_000,
                    end_us: 1_300_000,
                    mult: 3.0,
                    hot: false,
                },
            ],
            horizon_us: 1_300_000,
            route_delay_us: 25,
            dispatch_delay_us: 30,
            batch_window_us: 200,
            max_batch: 8,
            service_base_us: 40,
            service_per_item_us: 50.0,
            batch_exponent: 0.7,
            service_jitter_us: 16,
            decode_steps: 4,
            // 64 tenants over 18 stations: stations 0..10 host four
            // residents, the rest three. Three slots means exactly the
            // stations the hot skew concentrates on are the ones that
            // evict and re-queue under the wave.
            kv_slots: 3,
            reload_us: 80,
            max_reloads_per_batch: 1,
            sink_delay_us: 40,
            seed,
        }
    }

    /// Total simulation objects.
    pub fn n_objects(&self) -> usize {
        self.n_sources + self.n_routers + self.n_stations + self.n_sinks
    }

    /// Object id of source `i`.
    pub fn source_id(&self, i: usize) -> u32 {
        i as u32
    }

    /// Object id of router `i`.
    pub fn router_id(&self, i: usize) -> u32 {
        (self.n_sources + i) as u32
    }

    /// Object id of station `i`.
    pub fn station_id(&self, i: usize) -> u32 {
        (self.n_sources + self.n_routers + i) as u32
    }

    /// Object id of sink `i`.
    pub fn sink_id(&self, i: usize) -> u32 {
        (self.n_sources + self.n_routers + self.n_stations + i) as u32
    }

    /// Base arrival rate per source, per µs.
    fn base_rate(&self) -> f64 {
        1.0 / self.base_interarrival_us
    }

    /// Product of the burst multipliers active at `t`.
    pub fn burst_mult(&self, t: u64) -> f64 {
        self.bursts
            .iter()
            .filter(|b| b.start_us <= t && t < b.end_us)
            .map(|b| b.mult)
            .product()
    }

    /// Is any *hot* burst wave active at `t` (i.e. is tenant choice
    /// skewed right now)?
    pub fn burst_active(&self, t: u64) -> bool {
        self.bursts
            .iter()
            .any(|b| b.hot && b.start_us <= t && t < b.end_us)
    }

    /// Instantaneous arrival rate per source at `t`, per µs.
    pub fn rate_at(&self, t: u64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t as f64 / self.day_us as f64;
        self.base_rate() * (1.0 + self.diurnal_amp * phase.sin()) * self.burst_mult(t)
    }

    /// The thinning envelope at `t`: a piecewise-constant rate that
    /// dominates [`Self::rate_at`] until the returned boundary (the
    /// next burst edge, or the horizon).
    fn envelope_at(&self, t: u64) -> (f64, u64) {
        let env = self.base_rate() * (1.0 + self.diurnal_amp) * self.burst_mult(t);
        let mut until = self.horizon_us;
        for b in &self.bursts {
            for edge in [b.start_us, b.end_us] {
                if edge > t && edge < until {
                    until = edge;
                }
            }
        }
        (env, until)
    }

    /// The analytic arrival-count integral `Σ_sources ∫₀^horizon λ(t) dt`,
    /// evaluated piecewise in closed form over the burst edges.
    pub fn expected_arrivals(&self) -> f64 {
        let mut edges = vec![0, self.horizon_us];
        for b in &self.bursts {
            edges.push(b.start_us.min(self.horizon_us));
            edges.push(b.end_us.min(self.horizon_us));
        }
        edges.sort_unstable();
        edges.dedup();
        let day = self.day_us as f64;
        let tau = day / (2.0 * std::f64::consts::PI);
        let mut per_source = 0.0;
        for w in edges.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b <= a {
                continue;
            }
            let mult = self.burst_mult(a.midpoint(b));
            let (pa, pb) = (a as f64 / tau, b as f64 / tau);
            per_source += mult
                * self.base_rate()
                * ((b - a) as f64 + self.diurnal_amp * tau * (pa.cos() - pb.cos()));
        }
        per_source * self.n_sources as f64
    }

    /// The partition: every role round-robin over all LPs (station `i`
    /// on LP `i % n_lps`), one LP per node.
    pub fn partition(&self) -> Partition {
        let mut lp_of = Vec::with_capacity(self.n_objects());
        for role in [
            self.n_sources,
            self.n_routers,
            self.n_stations,
            self.n_sinks,
        ] {
            for i in 0..role {
                lp_of.push(LpId((i % self.n_lps) as u32));
            }
        }
        let node_of_lp = (0..self.n_lps).map(|l| NodeId(l as u32)).collect();
        Partition::new(lp_of, node_of_lp).expect("serve partition is valid")
    }

    /// Build the simulation spec.
    pub fn spec(&self) -> SimulationSpec {
        let cfg = self.clone();
        SimulationSpec::new(self.partition(), Arc::new(move |id| build_object(&cfg, id)))
    }
}

fn build_object(cfg: &ServeConfig, id: ObjectId) -> Box<dyn SimObject> {
    let i = id.0 as usize;
    let (s, r, n) = (cfg.n_sources, cfg.n_routers, cfg.n_stations);
    if i < s {
        Box::new(Source {
            cfg: cfg.clone(),
            me: id.0,
            tables: ZipfTables::new(cfg),
            state: SourceState::fresh(cfg, id.0),
        })
    } else if i < s + r {
        Box::new(Router {
            cfg: cfg.clone(),
            me: id.0,
            state: RouterState { routed: 0 },
        })
    } else if i < s + r + n {
        Box::new(Station {
            cfg: cfg.clone(),
            me: id.0,
            state: StationState::fresh(cfg, id.0),
        })
    } else {
        Box::new(Sink {
            me: id.0,
            state: SinkState::default(),
        })
    }
}

// ---------------------------------------------------------------- zipf

/// Precomputed cumulative Zipf weight tables over the tenants — built
/// deterministically from the config (immutable, *not* rollback
/// state), sampled by binary search on a `[0,1)` draw.
#[derive(Clone, Debug)]
pub struct ZipfTables {
    base: Vec<f64>,
    burst: Vec<f64>,
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

impl ZipfTables {
    /// Build both skew tables for a config.
    pub fn new(cfg: &ServeConfig) -> Self {
        ZipfTables {
            base: zipf_cdf(cfg.n_tenants, cfg.zipf_s),
            burst: zipf_cdf(cfg.n_tenants, cfg.burst_zipf_s),
        }
    }

    /// Draw a tenant (low ids are the hot ones).
    pub fn sample(&self, burst: bool, u: f64) -> u32 {
        let cdf = if burst { &self.burst } else { &self.base };
        cdf.partition_point(|&c| c <= u) as u32
    }
}

// -------------------------------------------------------------- source

/// One accepted arrival from a source's stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time, µs.
    pub at: u64,
    /// Simulated user id.
    pub user: u64,
    /// Tenant (routing key).
    pub tenant: u32,
}

/// Source rollback state: the rng and the candidate cursor. The same
/// stepping code drives both the [`SimObject`] and the offline
/// [`arrival_stream`] helper, so determinism tests exercise the exact
/// simulation path.
#[derive(Clone, Debug)]
struct SourceState {
    rng: SimRng,
    /// Time of the candidate being processed (the cursor of the
    /// thinning walk).
    t: u64,
    accepted: u64,
    candidates: u64,
}
impl ObjectState for SourceState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u64(self.t).u64(self.accepted).u64(self.candidates);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(SourceState {
            rng: SimRng::decode(r)?,
            t: r.u64()?,
            accepted: r.u64()?,
            candidates: r.u64()?,
        })
    }
}

impl SourceState {
    fn fresh(cfg: &ServeConfig, me: u32) -> Self {
        SourceState {
            rng: SimRng::derive(cfg.seed, me as u64),
            t: 0,
            accepted: 0,
            candidates: 0,
        }
    }

    /// Advance the thinning walk to the next candidate instant, or
    /// `None` once the horizon is reached. Exact for the
    /// piecewise-constant envelope: a draw that crosses the next
    /// envelope boundary restarts there (memorylessness).
    fn next_candidate(&mut self, cfg: &ServeConfig) -> Option<u64> {
        let mut t = self.t;
        loop {
            if t >= cfg.horizon_us {
                return None;
            }
            let (env, until) = cfg.envelope_at(t);
            let c = t + self.rng.exp_ticks(1.0 / env);
            if c >= until && until < cfg.horizon_us {
                t = until;
                continue;
            }
            if c >= cfg.horizon_us {
                return None;
            }
            self.t = c;
            self.candidates += 1;
            return Some(c);
        }
    }

    /// Thin the candidate at the cursor: `Some((user, tenant))` if it
    /// is a real arrival, `None` if rejected.
    fn classify(&mut self, cfg: &ServeConfig, tables: &ZipfTables) -> Option<(u64, u32)> {
        let (env, _) = cfg.envelope_at(self.t);
        if self.rng.unit_f64() * env >= cfg.rate_at(self.t) {
            return None;
        }
        let user = self.rng.below(cfg.n_users);
        let tenant = tables.sample(cfg.burst_active(self.t), self.rng.unit_f64());
        self.accepted += 1;
        Some((user, tenant))
    }
}

/// The full accepted-arrival stream source `i` will emit, computed
/// offline through the identical state-stepping code the simulation
/// object runs. For determinism and rate-integral tests.
pub fn arrival_stream(cfg: &ServeConfig, source: usize) -> Vec<Arrival> {
    let tables = ZipfTables::new(cfg);
    let mut st = SourceState::fresh(cfg, cfg.source_id(source));
    let mut out = Vec::new();
    while st.next_candidate(cfg).is_some() {
        if let Some((user, tenant)) = st.classify(cfg, &tables) {
            out.push(Arrival {
                at: st.t,
                user,
                tenant,
            });
        }
    }
    out
}

struct Source {
    cfg: ServeConfig,
    me: u32,
    tables: ZipfTables,
    state: SourceState,
}

impl Source {
    fn schedule_next(&mut self, ctx: &mut dyn ExecutionContext) {
        if let Some(c) = self.state.next_candidate(&self.cfg) {
            ctx.try_send_at(
                ObjectId(self.me),
                VirtualTime::new(c),
                K_CANDIDATE,
                Payload::new(),
            )
            .expect("serve candidate schedule");
        }
    }
}

impl SimObject for Source {
    fn name(&self) -> String {
        format!("source-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        self.schedule_next(ctx);
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_CANDIDATE);
        debug_assert_eq!(ctx.now().ticks(), self.state.t);
        if let Some((user, tenant)) = self.state.classify(&self.cfg, &self.tables) {
            let router = self.cfg.router_id(user as usize % self.cfg.n_routers);
            let mut w = PayloadWriter::new();
            w.u64(user).u32(tenant).u64(self.state.t);
            ctx.send(
                ObjectId(router),
                self.cfg.route_delay_us.max(1),
                K_REQ,
                w.finish(),
            );
        }
        self.schedule_next(ctx);
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// -------------------------------------------------------------- router

#[derive(Clone, Debug)]
struct RouterState {
    routed: u64,
}
impl ObjectState for RouterState {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.routed);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(RouterState { routed: r.u64()? })
    }
}

struct Router {
    cfg: ServeConfig,
    me: u32,
    state: RouterState,
}

impl SimObject for Router {
    fn name(&self) -> String {
        format!("router-{}", self.me)
    }
    fn init(&mut self, _ctx: &mut dyn ExecutionContext) {}
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_REQ);
        let mut r = PayloadReader::new(&ev.payload);
        let user = r.u64().expect("serve req user");
        let tenant = r.u32().expect("serve req tenant");
        let t0 = r.u64().expect("serve req t0");
        self.state.routed += 1;
        // Tenant affinity: the whole point. Hot tenants concentrate on
        // low-numbered stations, hence low-numbered LPs.
        let station = self.cfg.station_id(tenant as usize % self.cfg.n_stations);
        let mut w = PayloadWriter::new();
        w.u64(user).u32(tenant).u64(t0);
        ctx.send(
            ObjectId(station),
            self.cfg.dispatch_delay_us.max(1),
            K_DISPATCH,
            w.finish(),
        );
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// ------------------------------------------------------------- station

#[derive(Clone, Debug, PartialEq, Eq)]
struct Req {
    user: u64,
    tenant: u32,
    t0: u64,
}

/// Station rollback state — the queue, the KV cache, and the server
/// occupancy are all time-warped, so a straggler reshapes batching,
/// admission and every subsequent departure.
#[derive(Debug)]
pub struct StationState {
    rng: SimRng,
    queue: VecDeque<Req>,
    /// A batch-window close is already scheduled.
    batch_pending: bool,
    /// Server occupancy: batches serialize behind this.
    busy_until: u64,
    /// Resident tenants, LRU first.
    kv: Vec<u32>,
    /// Requests served (left in a batch).
    pub served: u64,
    /// Requests bounced back to the queue by the reload budget.
    pub requeued: u64,
    /// Tenants evicted from the KV cache.
    pub evictions: u64,
    /// Batches executed.
    pub batches: u64,
    /// Decode-step self-events executed.
    pub ticks: u64,
}
clone_field_wise!(
    StationState: rng, queue, batch_pending, busy_until, kv, served, requeued, evictions, batches,
    ticks
);
impl ObjectState for StationState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u32(self.queue.len() as u32);
        for q in &self.queue {
            w.u64(q.user).u32(q.tenant).u64(q.t0);
        }
        w.bool(self.batch_pending).u64(self.busy_until);
        w.u32(self.kv.len() as u32);
        for t in &self.kv {
            w.u32(*t);
        }
        w.u64(self.served)
            .u64(self.requeued)
            .u64(self.evictions)
            .u64(self.batches)
            .u64(self.ticks);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        let rng = SimRng::decode(r)?;
        let n = r.count(20)?;
        let queue = (0..n)
            .map(|_| {
                Ok(Req {
                    user: r.u64()?,
                    tenant: r.u32()?,
                    t0: r.u64()?,
                })
            })
            .collect::<Result<_, warp_core::KernelError>>()?;
        let batch_pending = r.bool()?;
        let busy_until = r.u64()?;
        let n = r.count(4)?;
        let kv = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
        Ok(StationState {
            rng,
            queue,
            batch_pending,
            busy_until,
            kv,
            served: r.u64()?,
            requeued: r.u64()?,
            evictions: r.u64()?,
            batches: r.u64()?,
            ticks: r.u64()?,
        })
    }
}

impl StationState {
    fn fresh(cfg: &ServeConfig, me: u32) -> Self {
        StationState {
            rng: SimRng::derive(cfg.seed, 0x5EE0_0000 + me as u64),
            queue: VecDeque::new(),
            batch_pending: false,
            busy_until: 0,
            kv: Vec::new(),
            served: 0,
            requeued: 0,
            evictions: 0,
            batches: 0,
            ticks: 0,
        }
    }

    /// KV admission for one request. A resident tenant is a hit
    /// (LRU-touched); a missing tenant is loaded (`loads` counts the
    /// service-time penalty), evicting the LRU resident when the cache
    /// is full. Evictions under pressure are rationed by
    /// `evict_budget` — the batch's first request is exempt (progress
    /// guarantee). Returns `false` when the budget is spent and the
    /// request must be re-queued.
    fn admit(
        &mut self,
        cfg: &ServeConfig,
        tenant: u32,
        loads: &mut usize,
        evict_budget: &mut usize,
        first: bool,
    ) -> bool {
        if let Some(pos) = self.kv.iter().position(|&t| t == tenant) {
            let t = self.kv.remove(pos);
            self.kv.push(t);
            return true;
        }
        if self.kv.len() >= cfg.kv_slots.max(1) {
            if !first {
                if *evict_budget == 0 {
                    return false;
                }
                *evict_budget -= 1;
            }
            self.kv.remove(0);
            self.evictions += 1;
        }
        *loads += 1;
        self.kv.push(tenant);
        true
    }
}

struct Station {
    cfg: ServeConfig,
    me: u32,
    state: StationState,
}

impl Station {
    fn close_batch(&mut self, ctx: &mut dyn ExecutionContext) {
        let now = ctx.now().ticks();
        self.state.batch_pending = false;
        let mut batch = Vec::new();
        let mut deferred = Vec::new();
        let mut loads = 0usize;
        let mut evict_budget = self.cfg.max_reloads_per_batch;
        while batch.len() < self.cfg.max_batch {
            let Some(req) = self.state.queue.pop_front() else {
                break;
            };
            let first = batch.is_empty();
            if self
                .state
                .admit(&self.cfg, req.tenant, &mut loads, &mut evict_budget, first)
            {
                batch.push(req);
            } else {
                self.state.requeued += 1;
                deferred.push(req);
            }
        }
        // Bounced requests keep their place at the head of the queue;
        // the next window's fresh reload budget will admit them.
        for req in deferred.into_iter().rev() {
            self.state.queue.push_front(req);
        }
        if batch.is_empty() {
            return;
        }
        let b = batch.len() as f64;
        let dur = self.cfg.service_base_us
            + (self.cfg.service_per_item_us * b.powf(self.cfg.batch_exponent)) as u64
            + loads as u64 * self.cfg.reload_us
            + self.state.rng.below(self.cfg.service_jitter_us + 1);
        let start = self.state.busy_until.max(now);
        let depart = start + dur.max(1);
        self.state.busy_until = depart;
        self.state.batches += 1;
        self.state.served += batch.len() as u64;
        // The decode chain: evenly spaced self-events across the
        // batch's service interval, strictly increasing, strictly
        // after `now` — pure event density on the hot path.
        let steps = self.cfg.decode_steps.max(1) as u64;
        let mut prev = now;
        for k in 1..steps {
            let at = (start + dur * k / steps).max(prev + 1);
            prev = at;
            ctx.try_send_at(
                ObjectId(self.me),
                VirtualTime::new(at),
                K_TICK,
                Payload::new(),
            )
            .expect("serve decode tick");
        }
        for req in &batch {
            let sink = self.cfg.sink_id(req.user as usize % self.cfg.n_sinks);
            let mut w = PayloadWriter::new();
            w.u64(req.user).u32(req.tenant).u64(req.t0);
            ctx.try_send_at(
                ObjectId(sink),
                VirtualTime::new(depart + self.cfg.sink_delay_us),
                K_DONE,
                w.finish(),
            )
            .expect("serve done");
        }
        if !self.state.queue.is_empty() {
            self.state.batch_pending = true;
            ctx.try_send_at(
                ObjectId(self.me),
                VirtualTime::new(now + self.cfg.batch_window_us.max(1)),
                K_BATCH,
                Payload::new(),
            )
            .expect("serve next window");
        }
    }
}

impl SimObject for Station {
    fn name(&self) -> String {
        format!("serve-station-{}", self.me)
    }
    fn init(&mut self, _ctx: &mut dyn ExecutionContext) {}
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        match ev.kind {
            K_DISPATCH => {
                let mut r = PayloadReader::new(&ev.payload);
                let req = Req {
                    user: r.u64().expect("serve dispatch user"),
                    tenant: r.u32().expect("serve dispatch tenant"),
                    t0: r.u64().expect("serve dispatch t0"),
                };
                self.state.queue.push_back(req);
                if !self.state.batch_pending {
                    self.state.batch_pending = true;
                    let at = ctx.now().ticks() + self.cfg.batch_window_us.max(1);
                    ctx.try_send_at(
                        ObjectId(self.me),
                        VirtualTime::new(at),
                        K_BATCH,
                        Payload::new(),
                    )
                    .expect("serve window open");
                }
            }
            K_BATCH => self.close_batch(ctx),
            K_TICK => self.state.ticks += 1,
            k => panic!("serve station got unexpected kind {k}"),
        }
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// ---------------------------------------------------------------- sink

/// Sink committed state: an end-to-end latency histogram (log₂ µs
/// buckets) plus totals. Lives in rollback state, so the committed
/// digest covers end-to-end behavior.
#[derive(Clone, Debug, Default)]
pub struct SinkState {
    /// Completed requests.
    pub done: u64,
    /// Sum of end-to-end latencies, µs.
    pub sum_latency_us: u64,
    /// Max end-to-end latency, µs.
    pub max_latency_us: u64,
    /// `buckets[i]` counts latencies with `floor(log2(us)) == i`.
    pub buckets: [u64; 24],
}
impl ObjectState for SinkState {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.done)
            .u64(self.sum_latency_us)
            .u64(self.max_latency_us);
        for b in self.buckets {
            w.u64(b);
        }
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        let mut s = SinkState {
            done: r.u64()?,
            sum_latency_us: r.u64()?,
            max_latency_us: r.u64()?,
            buckets: [0; 24],
        };
        for b in &mut s.buckets {
            *b = r.u64()?;
        }
        Ok(s)
    }
}

impl SinkState {
    /// Record one completion.
    pub fn record(&mut self, latency_us: u64) {
        self.done += 1;
        self.sum_latency_us += latency_us;
        self.max_latency_us = self.max_latency_us.max(latency_us);
        let idx = (latency_us.max(1).ilog2() as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
    }

    /// Mean latency, µs.
    pub fn mean_latency_us(&self) -> f64 {
        if self.done == 0 {
            0.0
        } else {
            self.sum_latency_us as f64 / self.done as f64
        }
    }
}

struct Sink {
    me: u32,
    state: SinkState,
}

impl SimObject for Sink {
    fn name(&self) -> String {
        format!("sink-{}", self.me)
    }
    fn init(&mut self, _ctx: &mut dyn ExecutionContext) {}
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_DONE);
        let mut r = PayloadReader::new(&ev.payload);
        let _user = r.u64().expect("serve done user");
        let _tenant = r.u32().expect("serve done tenant");
        let t0 = r.u64().expect("serve done t0");
        self.state.record(ctx.now().ticks().saturating_sub(t0));
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::object::RecordingContext;
    use warp_exec::{run_sequential, run_virtual, run_virtual_inspect, VirtualOptions};

    #[test]
    fn arrival_stream_is_seed_deterministic_across_fresh_builds() {
        // Satellite: same config + seed ⇒ byte-identical stream from
        // two independently constructed configs.
        let a = ServeConfig::small(77);
        let b = ServeConfig::small(77);
        for s in 0..a.n_sources {
            assert_eq!(arrival_stream(&a, s), arrival_stream(&b, s));
        }
        // Different seeds diverge; different sources diverge.
        let c = ServeConfig::small(78);
        assert_ne!(arrival_stream(&a, 0), arrival_stream(&c, 0));
        assert_ne!(arrival_stream(&a, 0), arrival_stream(&a, 1));
    }

    #[test]
    fn arrival_count_matches_the_rate_integral() {
        // A long horizon for tight statistics: ≥5k arrivals.
        let cfg = ServeConfig {
            horizon_us: 1_200_000,
            ..ServeConfig::small(11)
        };
        let total: usize = (0..cfg.n_sources)
            .map(|s| arrival_stream(&cfg, s).len())
            .sum();
        let expected = cfg.expected_arrivals();
        assert!(expected > 5_000.0, "scenario too small: {expected}");
        let err = (total as f64 - expected).abs() / expected;
        assert!(
            err < 0.10,
            "thinned arrivals {total} vs analytic {expected:.0} ({:.1}% off)",
            err * 100.0
        );
    }

    #[test]
    fn arrivals_are_ordered_bounded_and_rate_dominated() {
        let cfg = ServeConfig::small(5);
        for s in 0..cfg.n_sources {
            let stream = arrival_stream(&cfg, s);
            assert!(!stream.is_empty());
            let mut prev = 0;
            for a in &stream {
                assert!(a.at > prev, "arrivals must be strictly increasing");
                assert!(a.at < cfg.horizon_us);
                assert!(a.user < cfg.n_users);
                assert!((a.tenant as usize) < cfg.n_tenants);
                prev = a.at;
            }
        }
        // The envelope dominates the true rate everywhere.
        for t in (0..cfg.horizon_us).step_by(777) {
            let (env, _) = cfg.envelope_at(t);
            assert!(cfg.rate_at(t) <= env + 1e-12, "envelope violated at {t}");
        }
    }

    #[test]
    fn bursts_skew_tenants_hot() {
        let cfg = ServeConfig::small(13);
        let mid = |a: &Arrival| cfg.burst_active(a.at);
        let (mut hot_burst, mut n_burst, mut hot_base, mut n_base) = (0u64, 0u64, 0u64, 0u64);
        for s in 0..cfg.n_sources {
            for a in arrival_stream(&cfg, s) {
                let hot = (a.tenant as usize) < cfg.n_tenants / 8;
                if mid(&a) {
                    n_burst += 1;
                    hot_burst += hot as u64;
                } else {
                    n_base += 1;
                    hot_base += hot as u64;
                }
            }
        }
        assert!(n_burst > 100 && n_base > 100);
        let f_burst = hot_burst as f64 / n_burst as f64;
        let f_base = hot_base as f64 / n_base as f64;
        assert!(
            f_burst > 1.5 * f_base,
            "burst skew missing: hot share {f_burst:.2} in-burst vs {f_base:.2} outside"
        );
    }

    #[test]
    fn station_batches_reload_and_requeue() {
        let cfg = ServeConfig {
            kv_slots: 2,
            max_reloads_per_batch: 1,
            max_batch: 8,
            ..ServeConfig::small(3)
        };
        let mut st = Station {
            cfg: cfg.clone(),
            me: cfg.station_id(0),
            state: StationState::fresh(&cfg, cfg.station_id(0)),
        };
        // Five distinct tenants queued: slots 2 + reload budget 1 ⇒
        // the first batch serves 3 and re-queues 2.
        for tenant in 0..5u32 {
            st.state.queue.push_back(Req {
                user: tenant as u64,
                tenant,
                t0: 100,
            });
        }
        let mut ctx = RecordingContext::new(ObjectId(st.me), VirtualTime::new(500));
        st.close_batch(&mut ctx);
        assert_eq!(st.state.served, 3);
        assert_eq!(st.state.requeued, 2);
        assert_eq!(st.state.queue.len(), 2);
        assert!(st.state.batch_pending, "leftovers must reopen the window");
        let dones = ctx.sent.iter().filter(|e| e.2 == K_DONE).count();
        let ticks = ctx.sent.iter().filter(|e| e.2 == K_TICK).count();
        let windows = ctx.sent.iter().filter(|e| e.2 == K_BATCH).count();
        assert_eq!(dones, 3);
        assert_eq!(ticks, cfg.decode_steps as usize - 1);
        assert_eq!(windows, 1);
        // Next window: fresh budget admits the bounced tenants.
        let mut ctx2 = RecordingContext::new(ObjectId(st.me), VirtualTime::new(1_000));
        st.close_batch(&mut ctx2);
        assert_eq!(st.state.served, 5);
        assert!(st.state.queue.is_empty());
        assert!(st.state.evictions >= 2);
    }

    #[test]
    fn batch_service_time_is_sublinear() {
        let cfg = ServeConfig {
            service_jitter_us: 0,
            ..ServeConfig::small(1)
        };
        let dur = |b: f64| {
            cfg.service_base_us as f64 + cfg.service_per_item_us * b.powf(cfg.batch_exponent)
        };
        let per_item_small = dur(2.0) / 2.0;
        let per_item_big = dur(8.0) / 8.0;
        assert!(
            per_item_big < per_item_small,
            "batching must amortize: {per_item_big:.1} vs {per_item_small:.1} µs/req"
        );
    }

    #[test]
    fn sink_histogram_accumulates() {
        let mut s = SinkState::default();
        s.record(1);
        s.record(900);
        s.record(1_000_000);
        assert_eq!(s.done, 3);
        assert_eq!(s.max_latency_us, 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[9], 1); // 2^9 ≤ 900 < 2^10
        assert!(s.mean_latency_us() > 0.0);
    }

    #[test]
    fn virtual_matches_sequential_and_rolls_back() {
        let cfg = ServeConfig::small(21);
        let spec = cfg.spec().with_gvt_period(None).with_traces();
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        assert_eq!(seq.committed_events, tw.committed_events);
        assert_eq!(seq.trace_digests(), tw.trace_digests());
        assert!(
            tw.kernel.rollbacks() > 0,
            "open-arrival pipeline should be rollback-rich"
        );
    }

    #[test]
    fn every_request_reaches_a_sink() {
        // Conservation: accepted arrivals == sink completions once the
        // run drains (no arrivals after the horizon, queues empty).
        let cfg = ServeConfig::small(9);
        let arrivals: u64 = (0..cfg.n_sources)
            .map(|s| arrival_stream(&cfg, s).len() as u64)
            .sum();
        let spec = cfg.spec().with_gvt_period(None);
        let mut done = 0u64;
        run_virtual_inspect(&spec, &VirtualOptions::default(), |lps| {
            for lp in lps {
                for o in lp.objects() {
                    if o.id().0 >= cfg.sink_id(0) {
                        done += o.state().get::<SinkState>().done;
                    }
                }
            }
        });
        assert!(arrivals > 1_000, "scenario too small: {arrivals}");
        assert_eq!(done, arrivals, "requests were lost or duplicated");
    }
}
