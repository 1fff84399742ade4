//! RAID: the disk-array model (Section 7 of the paper).
//!
//! Source processes generate read requests that flow through fork
//! (controller) objects to a striped array of disks; disks answer the
//! originating source. Each request token carries the geometry the paper
//! lists — disk count, cylinders, tracks, sectors, sector size, stripe
//! and parity information. Virtual time is in microseconds.
//!
//! Cancellation behaviour is heterogeneous *by construction*, matching
//! the paper's observation for Figure 6:
//!
//! * **Disks favor lazy cancellation** — service time is a pure function
//!   of request geometry (seek + rotation + transfer from a fixed
//!   reference position), so re-execution after a rollback regenerates
//!   byte-identical responses.
//! * **Forks favor aggressive cancellation** — a fork stamps every
//!   dispatch with its own monotone sequence number (the array
//!   controller's request tag). A straggler reorders the requests seen
//!   after rollback, every regenerated dispatch carries a different tag,
//!   and held-back lazy messages would all be cancelled anyway.
//!
//! Partition: LP *k* hosts 5 sources and 2 disks, but fork *k* is placed
//! on LP *(k+1) mod L*, so the source→fork hop crosses LPs and forks see
//! genuinely concurrent traffic (an LP's objects are causally serialized
//! internally — a fork co-located with its sources would never roll
//! back, hiding exactly the effect Figure 6 measures).

use crate::util::clone_field_wise;
use crate::util::spread;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{
    DynState, Event, ExecutionContext, LpId, NodeId, ObjectId, ObjectState, Partition, Payload,
    SimObject,
};
use warp_exec::SimulationSpec;

/// Source self-timer tick.
pub const K_TICK: u16 = 10;
/// Source → fork read request.
pub const K_RREQ: u16 = 11;
/// Fork → disk dispatch.
pub const K_DREQ: u16 = 12;
/// Disk → source completion.
pub const K_DRESP: u16 = 13;

/// RAID configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RaidConfig {
    /// Request-generating source processes.
    pub n_sources: usize,
    /// Fork (array controller) objects.
    pub n_forks: usize,
    /// Disks in the array.
    pub n_disks: usize,
    /// Logical processes.
    pub n_lps: usize,
    /// Requests generated per source.
    pub requests_per_source: u64,
    /// Mean inter-request time at a source, µs.
    pub inter_request_us: f64,
    /// Disk geometry: cylinders.
    pub cylinders: u32,
    /// Disk geometry: tracks per cylinder.
    pub tracks: u32,
    /// Disk geometry: sectors per track.
    pub sectors: u32,
    /// Sector size in bytes.
    pub sector_bytes: u32,
    /// Stripe unit in sectors.
    pub stripe_sectors: u32,
    /// Disk track-cache entries (checkpointable state bulk per disk).
    pub track_cache_entries: usize,
    /// Workload seed.
    pub seed: u64,
}

impl RaidConfig {
    /// The configuration of Section 7: 20 sources × `requests` requests
    /// to 8 disks via 4 forks, in 4 LPs.
    pub fn paper(requests_per_source: u64, seed: u64) -> Self {
        RaidConfig {
            n_sources: 20,
            n_forks: 4,
            n_disks: 8,
            n_lps: 4,
            requests_per_source,
            inter_request_us: 900.0,
            cylinders: 1024,
            tracks: 8,
            sectors: 64,
            sector_bytes: 512,
            stripe_sectors: 8,
            track_cache_entries: 512,
            seed,
        }
    }

    /// A reduced instance for tests.
    pub fn small(requests_per_source: u64, seed: u64) -> Self {
        RaidConfig {
            n_sources: 4,
            n_forks: 2,
            n_disks: 4,
            n_lps: 2,
            track_cache_entries: 32,
            ..Self::paper(requests_per_source, seed)
        }
    }

    /// Total simulation objects.
    pub fn n_objects(&self) -> usize {
        self.n_sources + self.n_forks + self.n_disks
    }

    /// Source object ids come first.
    pub fn source_id(&self, s: usize) -> ObjectId {
        ObjectId(s as u32)
    }
    /// Fork object ids follow the sources.
    pub fn fork_id(&self, f: usize) -> ObjectId {
        ObjectId((self.n_sources + f) as u32)
    }
    /// Disk object ids come last.
    pub fn disk_id(&self, d: usize) -> ObjectId {
        ObjectId((self.n_sources + self.n_forks + d) as u32)
    }

    /// The partition described in the module docs.
    pub fn partition(&self) -> Partition {
        assert_eq!(self.n_forks, self.n_lps, "one fork per LP");
        assert!(
            self.n_disks.is_multiple_of(self.n_lps),
            "disks must split evenly over LPs"
        );
        let mut lp_of = vec![LpId(0); self.n_objects()];
        for s in 0..self.n_sources {
            lp_of[self.source_id(s).index()] = LpId((s % self.n_lps) as u32);
        }
        for f in 0..self.n_forks {
            // Offset placement: the source→fork hop crosses LPs.
            lp_of[self.fork_id(f).index()] = LpId(((f + 1) % self.n_lps) as u32);
        }
        let disks_per_lp = self.n_disks / self.n_lps;
        for d in 0..self.n_disks {
            lp_of[self.disk_id(d).index()] = LpId((d / disks_per_lp) as u32);
        }
        let nodes = (0..self.n_lps).map(|l| NodeId(l as u32)).collect();
        Partition::new(lp_of, nodes).expect("RAID partition is well formed")
    }

    /// Build the simulation spec (baseline policies).
    pub fn spec(&self) -> SimulationSpec {
        let cfg = self.clone();
        SimulationSpec::new(self.partition(), Arc::new(move |id| build_object(&cfg, id)))
    }
}

/// A disk request token: the paper's "token that carries information
/// about the number of disks, cylinders, tracks, sectors, size of each
/// sector and specific information about which stripe to read and parity
/// information".
#[derive(Clone, Debug, PartialEq)]
pub struct DiskRequest {
    /// Originating source.
    pub source: u32,
    /// Per-source request serial.
    pub serial: u64,
    /// Logical stripe number being read.
    pub stripe: u64,
    /// Fork-assigned dispatch tag (the history-dependent part).
    pub fork_tag: u64,
    /// Target cylinder (derived from the stripe).
    pub cylinder: u32,
    /// Target track.
    pub track: u32,
    /// Target sector.
    pub sector: u32,
    /// Sectors to transfer.
    pub n_sectors: u32,
    /// Parity disk for the stripe's group (RAID-5 rotation).
    pub parity_disk: u32,
}

impl DiskRequest {
    /// Canonical encoding.
    pub fn encode(&self) -> Payload {
        let mut w = PayloadWriter::with_capacity(48);
        w.u32(self.source)
            .u64(self.serial)
            .u64(self.stripe)
            .u64(self.fork_tag)
            .u32(self.cylinder)
            .u32(self.track)
            .u32(self.sector)
            .u32(self.n_sectors)
            .u32(self.parity_disk);
        w.finish()
    }

    /// Decode; panics on malformed payload (a model bug).
    pub fn decode(payload: &[u8]) -> DiskRequest {
        let mut r = PayloadReader::new(payload);
        DiskRequest {
            source: r.u32().expect("source"),
            serial: r.u64().expect("serial"),
            stripe: r.u64().expect("stripe"),
            fork_tag: r.u64().expect("fork_tag"),
            cylinder: r.u32().expect("cylinder"),
            track: r.u32().expect("track"),
            sector: r.u32().expect("sector"),
            n_sectors: r.u32().expect("n_sectors"),
            parity_disk: r.u32().expect("parity_disk"),
        }
    }
}

fn build_object(cfg: &RaidConfig, id: ObjectId) -> Box<dyn SimObject> {
    let i = id.index();
    if i < cfg.n_sources {
        Box::new(Source {
            cfg: cfg.clone(),
            me: i,
            state: SourceState {
                rng: SimRng::derive(cfg.seed, id.0 as u64),
                issued: 0,
                completed: 0,
                total_latency: 0,
            },
        })
    } else if i < cfg.n_sources + cfg.n_forks {
        Box::new(Fork {
            cfg: cfg.clone(),
            me: i - cfg.n_sources,
            state: ForkState {
                next_tag: 0,
                dispatched: 0,
            },
        })
    } else {
        Box::new(Disk {
            cfg: cfg.clone(),
            me: i - cfg.n_sources - cfg.n_forks,
            state: DiskState {
                served: 0,
                sectors_read: 0,
                track_cache: vec![0; cfg.track_cache_entries],
            },
        })
    }
}

// -------------------------------------------------------------- Source --

#[derive(Clone, Debug)]
struct SourceState {
    rng: SimRng,
    issued: u64,
    completed: u64,
    total_latency: u64,
}
impl ObjectState for SourceState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.u64(self.issued)
            .u64(self.completed)
            .u64(self.total_latency);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(SourceState {
            rng: SimRng::decode(r)?,
            issued: r.u64()?,
            completed: r.u64()?,
            total_latency: r.u64()?,
        })
    }
}

struct Source {
    cfg: RaidConfig,
    me: usize,
    state: SourceState,
}

impl Source {
    fn fork_of(&self) -> usize {
        self.me % self.cfg.n_forks
    }

    fn schedule_tick(&mut self, ctx: &mut dyn ExecutionContext) {
        if self.state.issued >= self.cfg.requests_per_source {
            return;
        }
        let gap = self.state.rng.exp_ticks(self.cfg.inter_request_us);
        ctx.send(ctx.me(), gap, K_TICK, Payload::new());
    }

    fn issue(&mut self, ctx: &mut dyn ExecutionContext) {
        let serial = self.state.issued;
        self.state.issued += 1;
        let stripe = self.state.rng.next_u64() % 1_000_000;
        let mut w = PayloadWriter::with_capacity(20);
        w.u32(self.me as u32).u64(serial).u64(stripe);
        // The source→fork hop models the host I/O stack: a variable
        // submission latency, so concurrent sources interleave at the
        // fork in non-deterministic (virtual-time) order.
        let lat = self.state.rng.range(20, 120);
        ctx.send(self.cfg.fork_id(self.fork_of()), lat, K_RREQ, w.finish());
    }
}

impl SimObject for Source {
    fn name(&self) -> String {
        format!("source-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        self.schedule_tick(ctx);
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        match ev.kind {
            K_TICK => {
                self.issue(ctx);
                self.schedule_tick(ctx);
            }
            K_DRESP => {
                let req = DiskRequest::decode(&ev.payload);
                self.state.completed += 1;
                // Latency bookkeeping: serials index the issue order, so
                // creation time is recoverable from the tick stream; here
                // we simply accumulate the service component.
                self.state.total_latency += req.n_sectors as u64;
            }
            other => panic!("source received unexpected kind {other}"),
        }
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// ---------------------------------------------------------------- Fork --

#[derive(Clone, Debug)]
struct ForkState {
    /// Monotone dispatch tag — the history-dependent state that makes
    /// forks favor aggressive cancellation.
    next_tag: u64,
    dispatched: u64,
}
impl ObjectState for ForkState {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.next_tag).u64(self.dispatched);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(ForkState {
            next_tag: r.u64()?,
            dispatched: r.u64()?,
        })
    }
}

struct Fork {
    cfg: RaidConfig,
    me: usize,
    state: ForkState,
}

impl SimObject for Fork {
    fn name(&self) -> String {
        format!("fork-{}", self.me)
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_RREQ);
        let mut r = PayloadReader::new(&ev.payload);
        let source = r.u32().expect("rreq source");
        let serial = r.u64().expect("rreq serial");
        let stripe = r.u64().expect("rreq stripe");

        let tag = self.state.next_tag;
        self.state.next_tag += 1;
        self.state.dispatched += 1;

        // RAID-5 striping: rotate data+parity placement per stripe group.
        let n = self.cfg.n_disks as u64;
        let group = stripe / (n - 1);
        let parity_disk = (group % n) as u32;
        let mut data_disk = (spread(stripe, 4) % n) as u32;
        if data_disk == parity_disk {
            data_disk = (data_disk + 1) % n as u32;
        }
        let sectors_per_cyl = (self.cfg.tracks * self.cfg.sectors) as u64;
        let lba = stripe * self.cfg.stripe_sectors as u64;
        let req = DiskRequest {
            source,
            serial,
            stripe,
            fork_tag: tag,
            cylinder: ((lba / sectors_per_cyl) % self.cfg.cylinders as u64) as u32,
            track: ((lba / self.cfg.sectors as u64) % self.cfg.tracks as u64) as u32,
            sector: (lba % self.cfg.sectors as u64) as u32,
            n_sectors: self.cfg.stripe_sectors,
            parity_disk,
        };
        // Controller firmware latency.
        ctx.send(
            self.cfg.disk_id(data_disk as usize),
            15,
            K_DREQ,
            req.encode(),
        );
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// ---------------------------------------------------------------- Disk --

#[derive(Debug)]
struct DiskState {
    served: u64,
    sectors_read: u64,
    /// Track-cache tags: checkpointable bulk updated per access. Service
    /// time and response content never depend on it, preserving the
    /// disks' pure-function (lazy-friendly) behaviour.
    track_cache: Vec<u64>,
}
clone_field_wise!(DiskState: served, sectors_read, track_cache);
impl ObjectState for DiskState {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.track_cache.len() * std::mem::size_of::<u64>()
    }
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.served)
            .u64(self.sectors_read)
            .u64s(&self.track_cache);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(DiskState {
            served: r.u64()?,
            sectors_read: r.u64()?,
            track_cache: r.u64s()?,
        })
    }
}

struct Disk {
    cfg: RaidConfig,
    me: usize,
    state: DiskState,
}

impl Disk {
    /// Service time in µs: seek from a fixed reference cylinder, half a
    /// rotation of latency, plus transfer — a pure function of geometry
    /// (the disk is modeled positioned at cylinder 0 per request, the
    /// same simplification the WARPED distribution's model makes; it is
    /// what lets disks favor lazy cancellation).
    fn service_us(&self, req: &DiskRequest) -> u64 {
        let seek = 2_000 + (req.cylinder as u64 * 8_000) / self.cfg.cylinders as u64;
        let rotation = 4_000; // half of ~8.3 ms at 7200 rpm, rounded
        let transfer = (req.n_sectors as u64 * self.cfg.sector_bytes as u64) / 40; // ~40 MB/s in µs terms
        seek + rotation + transfer
    }
}

impl SimObject for Disk {
    fn name(&self) -> String {
        format!("disk-{}", self.me)
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_DREQ);
        let req = DiskRequest::decode(&ev.payload);
        self.state.served += 1;
        self.state.sectors_read += req.n_sectors as u64;
        let slot = (req.cylinder as u64 * self.cfg.tracks as u64 + req.track as u64)
            % self.state.track_cache.len() as u64;
        self.state.track_cache[slot as usize] = req.stripe;
        let t = self.service_us(&req);
        ctx.send(ObjectId(req.source), t, K_DRESP, ev.payload.clone());
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
    use warp_core::{EventId, VirtualTime};

    #[test]
    fn paper_configuration_shape() {
        let cfg = RaidConfig::paper(1000, 1);
        assert_eq!(cfg.n_objects(), 32); // 20 + 4 + 8
        let p = cfg.partition();
        assert_eq!(p.n_lps(), 4);
        for lp in p.lps() {
            assert_eq!(p.objects_of(lp).len(), 8); // 5 sources + 1 fork + 2 disks
        }
        // Forks are offset from their sources' LP.
        assert_ne!(
            p.lp_of(cfg.fork_id(0)),
            p.lp_of(cfg.source_id(0)),
            "fork must not share its sources' LP"
        );
    }

    #[test]
    fn token_roundtrip() {
        let req = DiskRequest {
            source: 3,
            serial: 77,
            stripe: 123_456,
            fork_tag: 9,
            cylinder: 500,
            track: 3,
            sector: 17,
            n_sectors: 8,
            parity_disk: 2,
        };
        assert_eq!(DiskRequest::decode(&req.encode()), req);
    }

    fn rreq_event(cfg: &RaidConfig, src: u32, serial: u64, stripe: u64, t: u64) -> Event {
        let mut w = PayloadWriter::new();
        w.u32(src).u64(serial).u64(stripe);
        Event::new(
            EventId {
                sender: cfg.source_id(src as usize),
                serial,
            },
            cfg.fork_id(0),
            VirtualTime::new(t.saturating_sub(1)),
            VirtualTime::new(t),
            K_RREQ,
            w.finish(),
        )
    }

    #[test]
    fn fork_tags_are_order_dependent() {
        // The property behind "forks favor aggressive": replaying the
        // same requests in a different order changes the dispatches.
        let cfg = RaidConfig::small(10, 1);
        let mk = || Fork {
            cfg: cfg.clone(),
            me: 0,
            state: ForkState {
                next_tag: 0,
                dispatched: 0,
            },
        };
        let (a, b) = (
            rreq_event(&cfg, 0, 0, 100, 50),
            rreq_event(&cfg, 1, 0, 200, 60),
        );

        let mut f1 = mk();
        let mut c1 = RecordingContext::new(cfg.fork_id(0), a.recv_time);
        f1.execute(&mut c1, &a);
        c1.now = b.recv_time;
        f1.execute(&mut c1, &b);

        let mut f2 = mk();
        let mut c2 = RecordingContext::new(cfg.fork_id(0), a.recv_time);
        // Opposite order (as after a straggler-induced rollback).
        let b_early = rreq_event(&cfg, 1, 0, 200, 40);
        f2.execute(&mut c2, &b_early);
        c2.now = a.recv_time;
        f2.execute(&mut c2, &a);

        // The dispatch for stripe 100 differs between the two histories
        // (its fork_tag moved), so lazy comparison would miss.
        let d1 = DiskRequest::decode(&c1.sent[0].3);
        let d2 = DiskRequest::decode(&c2.sent[1].3);
        assert_eq!(d1.stripe, 100);
        assert_eq!(d2.stripe, 100);
        assert_ne!(d1.fork_tag, d2.fork_tag);
    }

    #[test]
    fn disk_service_is_pure_function_of_geometry() {
        let cfg = RaidConfig::small(10, 1);
        let disk = Disk {
            cfg: cfg.clone(),
            me: 0,
            state: DiskState {
                served: 0,
                sectors_read: 0,
                track_cache: vec![0; 32],
            },
        };
        let req = DiskRequest {
            source: 0,
            serial: 0,
            stripe: 42,
            fork_tag: 7,
            cylinder: 512,
            track: 1,
            sector: 3,
            n_sectors: 8,
            parity_disk: 1,
        };
        let t1 = disk.service_us(&req);
        let t2 = disk.service_us(&req);
        assert_eq!(t1, t2);
        assert!(t1 > 4_000, "must include rotation: {t1}");
        let far = DiskRequest {
            cylinder: 1023,
            ..req.clone()
        };
        assert!(
            disk.service_us(&far) > t1,
            "longer seek for farther cylinder"
        );
    }

    #[test]
    fn parity_disk_differs_from_data_disk() {
        // Exercise the fork's striping on many stripes.
        let cfg = RaidConfig::paper(10, 1);
        let mut fork = Fork {
            cfg: cfg.clone(),
            me: 0,
            state: ForkState {
                next_tag: 0,
                dispatched: 0,
            },
        };
        for s in 0..200u64 {
            let ev = rreq_event(&cfg, 0, s, s * 37, 100 + s);
            let mut ctx = RecordingContext::new(cfg.fork_id(0), ev.recv_time);
            fork.execute(&mut ctx, &ev);
            let req = DiskRequest::decode(&ctx.sent[0].3);
            let data_disk = ctx.sent[0].0;
            assert_ne!(
                data_disk,
                cfg.disk_id(req.parity_disk as usize),
                "a RAID-5 read must not target the parity disk"
            );
        }
        assert_eq!(fork.state.dispatched, 200);
    }

    #[test]
    fn source_issues_exactly_its_quota() {
        let cfg = RaidConfig::small(5, 3);
        let mut src = Source {
            cfg: cfg.clone(),
            me: 0,
            state: SourceState {
                rng: SimRng::derive(3, 0),
                issued: 0,
                completed: 0,
                total_latency: 0,
            },
        };
        let mut ctx = RecordingContext::new(cfg.source_id(0), VirtualTime::ZERO);
        src.init(&mut ctx);
        let mut ticks: Vec<_> = ctx.sent.drain(..).collect();
        let mut issued = 0;
        let mut serial = 0u64;
        while let Some((dst, at, kind, payload)) = ticks.pop() {
            assert_eq!(kind, K_TICK);
            assert_eq!(dst, cfg.source_id(0));
            let ev = Event::new(
                EventId {
                    sender: dst,
                    serial,
                },
                dst,
                VirtualTime::ZERO,
                at,
                kind,
                payload,
            );
            serial += 1;
            let mut c = RecordingContext::new(dst, at);
            src.execute(&mut c, &ev);
            for s in c.sent {
                if s.2 == K_TICK {
                    ticks.push(s);
                } else {
                    assert_eq!(s.2, K_RREQ);
                    issued += 1;
                }
            }
        }
        assert_eq!(issued, 5);
        assert_eq!(src.state.issued, 5);
    }
}
